package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/query"
)

// vocab is the vocabulary of random queries: the generator of their
// atomic leaves, the integer attribute their aggregate selections fold,
// and the DN-valued attribute their embedded references follow.
type vocab struct {
	atomic   func(*rand.Rand) *query.Atomic
	val, ref string
}

// forestVocab is randForest's vocabulary.
var forestVocab = vocab{atomic: randAtomic, val: "val", ref: "ref"}

// randQuery generates a random query tree of bounded depth over the
// random-forest vocabulary, covering every node type and aggregate
// form. Together with TestQuickRandomQueriesMatchOracle it extends the
// fixed query pool to the full AST space.
func randQuery(r *rand.Rand, depth int) query.Query { return forestVocab.query(r, depth) }

func (v vocab) query(r *rand.Rand, depth int) query.Query {
	if depth <= 0 || r.Intn(3) == 0 {
		return v.atomic(r)
	}
	switch r.Intn(8) {
	case 0, 1:
		return &query.Bool{
			Op: query.BoolOp(r.Intn(3)),
			Q1: v.query(r, depth-1),
			Q2: v.query(r, depth-1),
		}
	case 2, 3, 4:
		op := query.HierOp(r.Intn(6))
		h := &query.Hier{Op: op, Q1: v.query(r, depth-1), Q2: v.query(r, depth-1)}
		if op.Ternary() {
			h.Q3 = v.query(r, depth-1)
		}
		if r.Intn(2) == 0 {
			h.AggSel = v.aggSel(r, true)
		}
		return h
	case 5:
		return &query.SimpleAgg{Q: v.query(r, depth-1), AggSel: v.aggSel(r, false)}
	default:
		e := &query.EmbedRef{
			Op:   query.RefOp(r.Intn(2)),
			Q1:   v.query(r, depth-1),
			Q2:   v.query(r, depth-1),
			Attr: v.ref,
		}
		if r.Intn(2) == 0 {
			e.AggSel = v.aggSel(r, true)
		}
		return e
	}
}

func randAtomic(r *rand.Rand) *query.Atomic {
	bases := []string{"", "n=e0", "n=e1, n=e0"}
	scopes := []query.Scope{query.ScopeBase, query.ScopeOne, query.ScopeSub, query.ScopeSub}
	atoms := []func() *filter.Atom{
		func() *filter.Atom { return filter.Eq("tag", string(rune('a'+r.Intn(3)))) },
		func() *filter.Atom { return filter.Present("val") },
		func() *filter.Atom { return filter.NewAtom("val", filter.OpLT, fmt.Sprint(r.Intn(8))) },
		func() *filter.Atom { return filter.NewAtom("val", filter.OpGE, fmt.Sprint(r.Intn(8))) },
		func() *filter.Atom { return filter.Eq("n", fmt.Sprintf("e%d*", r.Intn(3))) },
		func() *filter.Atom { return filter.Present("objectclass") },
	}
	return &query.Atomic{
		Base:   model.MustParseDN(bases[r.Intn(len(bases))]),
		Scope:  scopes[r.Intn(len(scopes))],
		Filter: atoms[r.Intn(len(atoms))](),
	}
}

func (v vocab) aggSel(r *rand.Rand, structural bool) *query.AggSel {
	fns := []query.AggFunc{query.AggMin, query.AggMax, query.AggCount, query.AggSum, query.AggAvg}
	mkSide := func() query.AggAttr {
		k := r.Intn(4)
		if !structural && k >= 2 {
			k = r.Intn(2)
		}
		switch k {
		case 0:
			return query.ConstAttr(int64(r.Intn(6)))
		case 1:
			return query.EntryAttr(fns[r.Intn(len(fns))], query.VarSelf, v.val)
		case 2:
			if r.Intn(2) == 0 {
				return query.CountWitness()
			}
			return query.EntryAttr(fns[r.Intn(len(fns))], query.VarWitness, v.val)
		default:
			if r.Intn(3) == 0 {
				return query.AggAttr{Kind: query.KindEntrySet, Form: query.SetCountAll}
			}
			inner := query.EntryAgg{Fn: fns[r.Intn(len(fns))], Over: query.Var(r.Intn(2)), Attr: v.val}
			if r.Intn(4) == 0 {
				inner = query.EntryAgg{Fn: query.AggCount, Over: query.VarWitness} // count($2)
			}
			return query.SetAttr(fns[r.Intn(len(fns))], inner)
		}
	}
	return &query.AggSel{Left: mkSide(), Op: query.CmpOp(r.Intn(6)), Right: mkSide()}
}

func TestQuickRandomQueriesMatchOracle(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		in := randForest(t, r, 15+r.Intn(60))
		e := newEngine(t, in, Config{StackWindow: 2})
		q := randQuery(r, 1+r.Intn(2))
		if err := query.Validate(in.Schema(), q); err != nil {
			t.Fatalf("generator produced invalid query %s: %v", q, err)
		}
		// Round-trip through the parser too: the printed form must mean
		// the same thing.
		q2, err := query.Parse(q.String())
		if err != nil {
			t.Fatalf("re-parse of %s: %v", q, err)
		}
		want := oracleEval(in, q).sortedKeys()
		for i, qq := range []query.Query{q, q2} {
			l, err := e.Eval(qq)
			if err != nil {
				t.Fatalf("trial %d variant %d eval %s: %v", trial, i, qq, err)
			}
			got := resultKeys(t, l)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d variant %d: %s\n got %v\nwant %v", trial, i, qq, got, want)
			}
		}
	}
}

func TestRandomQueriesNaiveAgreesToo(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	trials := 25
	if testing.Short() {
		trials = 5
	}
	for trial := 0; trial < trials; trial++ {
		in := randForest(t, r, 10+r.Intn(40))
		e := newEngine(t, in, Config{Naive: true})
		q := randQuery(r, 1+r.Intn(2))
		want := oracleEval(in, q).sortedKeys()
		l, err := e.Eval(q)
		if err != nil {
			t.Fatalf("trial %d naive eval %s: %v", trial, q, err)
		}
		got := resultKeys(t, l)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, q, got, want)
		}
	}
}
