package engine

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// topsVocab is a GenTOPS directory's vocabulary. It has no DN-valued
// attribute in use, so embedded references over it find no witnesses.
var topsVocab = vocab{atomic: randTOPSAtomic, val: "priority", ref: "SLATPRef"}

func randTOPSAtomic(r *rand.Rand) *query.Atomic {
	bases := []string{"", "dc=com", "ou=userProfiles, dc=research, dc=att, dc=com",
		"uid=sub0001, ou=userProfiles, dc=research, dc=att, dc=com"}
	scopes := []query.Scope{query.ScopeBase, query.ScopeOne, query.ScopeSub, query.ScopeSub}
	classes := []string{"QHP", "callAppearance", "TOPSSubscriber"}
	atoms := []func() *filter.Atom{
		func() *filter.Atom { return filter.Eq("objectClass", classes[r.Intn(len(classes))]) },
		func() *filter.Atom { return filter.NewAtom("priority", filter.OpLT, fmt.Sprint(r.Intn(5))) },
		func() *filter.Atom { return filter.NewAtom("priority", filter.OpGE, fmt.Sprint(r.Intn(5))) },
		func() *filter.Atom { return filter.Eq("surName", []string{"j*", "*a*", "milo"}[r.Intn(3)]) },
		func() *filter.Atom { return filter.Present("daysOfWeek") },
		func() *filter.Atom { return filter.NewAtom("timeOut", filter.OpLT, fmt.Sprint(10+r.Intn(50))) },
	}
	return &query.Atomic{
		Base:   model.MustParseDN(bases[r.Intn(len(bases))]),
		Scope:  scopes[r.Intn(len(scopes))],
		Filter: atoms[r.Intn(len(atoms))](),
	}
}

// mutate applies one batch of entry-level writes to st, as
// core.Directory.UpdateEntries does, and returns the new generation: a
// few entries removed, a few rewritten in place (removed, then added
// back with one more value of val) and a few new siblings of entries
// holding val. Afterwards the attribute index holds overlay postings,
// and the master list carries tombstoned and shadowed records.
func mutate(t *testing.T, r *rand.Rand, st *store.Store, val string) *store.Store {
	t.Helper()
	in, err := st.Instance()
	if err != nil {
		t.Fatal(err)
	}
	var withVal []*model.Entry
	for _, e := range in.Entries() {
		if e.Has(val) && len(e.DN().RDN()) == 1 {
			if typ, _ := in.Schema().AttrType(e.DN().RDN()[0].Attr); typ == model.TypeString {
				withVal = append(withVal, e)
			}
		}
	}
	if len(withVal) < 6 {
		t.Fatalf("only %d entries hold %s", len(withVal), val)
	}
	r.Shuffle(len(withVal), func(i, j int) { withVal[i], withVal[j] = withVal[j], withVal[i] })
	var ops []store.EntryOp
	for i, e := range withVal[:6] {
		switch i % 3 {
		case 0:
			ops = append(ops, store.EntryOp{Remove: e.DN()})
		case 1:
			ops = append(ops, store.EntryOp{Remove: e.DN()},
				store.EntryOp{Add: e.Clone().Add(val, model.Int(int64(r.Intn(5))))})
		default:
			ava := e.DN().RDN()[0]
			dn := e.DN().Parent().Child(model.RDN{{Attr: ava.Attr, Value: ava.Value + "x"}})
			ne, err := model.NewEntryFromDN(in.Schema(), dn)
			if err != nil {
				t.Fatal(err)
			}
			for _, av := range e.Pairs() {
				if av.Attr != model.NormalizeAttr(ava.Attr) || av.Value.Str() != ava.Value {
					ne.Add(av.Attr, av.Value)
				}
			}
			ops = append(ops, store.EntryOp{Add: ne})
		}
	}
	next, err := st.ApplyOps(st.Disk().Fork(), ops)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// listBytes is a list's byte-identity witness: its records re-encoded
// in order, each checked to carry its entry.
func listBytes(t *testing.T, l *plist.List) []byte {
	t.Helper()
	var out []byte
	rd := l.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rec.HasEntry() {
			t.Fatalf("result record %q carries no entry", rec.Key)
		}
		out = plist.AppendRecord(out, rec)
	}
}

// sameUnderNeeds evaluates q on s twice at each of Workers 1 and 3, with
// the derived needs and with every operand read whole, and fails unless
// the two result lists are byte-identical, Count included. It returns
// the result's Count.
func sameUnderNeeds(t *testing.T, s *store.Store, q query.Query) int64 {
	t.Helper()
	var n int64
	for _, workers := range []int{1, 3} {
		cfg := Config{StackWindow: 2, Workers: workers, SortMemBytes: 1024}
		derived, all := New(s, cfg), New(s, cfg)
		all.allNeeds = true
		ld, err := derived.Eval(q)
		if err != nil {
			t.Fatalf("%s: derived needs: %v", q, err)
		}
		la, err := all.Eval(q)
		if err != nil {
			t.Fatalf("%s: all needs: %v", q, err)
		}
		if ld.Count() != la.Count() || !bytes.Equal(listBytes(t, ld), listBytes(t, la)) {
			t.Fatalf("workers %d: %s\nderived needs give %d records, all needs %d", workers, q, ld.Count(), la.Count())
		}
		n = la.Count()
	}
	return n
}

// TestDerivedNeedsMatchAllNeeds is the property behind operandNeeds:
// evaluating with the derived needs (keys-only witnesses, blockers and
// right operands) yields the byte-identical result list, Count
// included, that evaluating every operand whole does. It runs random
// L0–L3 queries, drawn until a number of them answer non-empty, on
// random forests and on TOPS, plus the package's fixed query pool on
// the forests — at Workers 1 and 3, before and after a batch of adds
// and removes puts overlay postings in the attribute index.
func TestDerivedNeedsMatchAllNeeds(t *testing.T) {
	r := rand.New(rand.NewSource(401))
	trials, nonEmpty := 4, 8
	if testing.Short() {
		trials, nonEmpty = 2, 3
	}
	pool := buildQueries(t)
	keysPlans := 0
	for trial := 0; trial < trials; trial++ {
		dirs := []struct {
			in *model.Instance
			v  vocab
		}{
			{randForest(t, r, 80+r.Intn(80)), forestVocab},
			{workload.GenTOPS(workload.TOPSConfig{Subscribers: 8 + r.Intn(12), Seed: r.Int63()}), topsVocab},
		}
		for _, d := range dirs {
			st, err := store.Build(pager.NewDisk(pager.DefaultPageSize), d.in, store.Options{AttrIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*store.Store{st, mutate(t, r, st, d.v.val)} {
				for found, draws := 0, 0; found < nonEmpty && draws < 25*nonEmpty; draws++ {
					q := d.v.query(r, 1+r.Intn(3))
					if err := query.Validate(s.Schema(), q); err != nil {
						t.Fatalf("generator produced invalid query %s: %v", q, err)
					}
					if sameUnderNeeds(t, s, q) > 0 {
						found++
					}
					New(s, Config{}).WalkNeeds(q, func(n query.Query, need store.Need) {
						if a, ok := n.(*query.Atomic); ok && need == store.NeedKeys &&
							s.ExplainAtomic(a, need).Path == store.PathIndex {
							keysPlans++
						}
					})
				}
				if d.v.ref != forestVocab.ref || trial > 0 {
					continue
				}
				for _, text := range pool {
					sameUnderNeeds(t, s, query.MustParse(text))
				}
			}
		}
	}
	if keysPlans == 0 {
		t.Error("no query evaluated a keys-only index plan")
	}
}

// TestAtomicSpanShowsPlanThatRan pins the atomic span's plan tags to the
// store's own decision: the right operand of - is read for its keys,
// and for keys the index range of val<2 beats the scope scan that a
// whole-entry read would take.
func TestAtomicSpanShowsPlanThatRan(t *testing.T) {
	in := workload.RandomForest(workload.ForestConfig{N: 3000, Seed: 1})
	st, err := store.Build(pager.NewDisk(pager.DefaultPageSize), in, store.Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	arena := pager.NewArena(st.Disk())
	tr := obs.NewTracer(arena)
	q := query.MustParse(`(- ( ? sub ? tag=a) ( ? sub ? val<2))`)
	if _, err := New(st, Config{}).Session(arena).EvalContext(obs.WithTracer(context.Background(), tr), q); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(*obs.Span)
	walk = func(sp *obs.Span) {
		if sp.Op == "atomic" {
			need, _ := sp.TagValue("need")
			path, _ := sp.TagValue("path")
			got = append(got, fmt.Sprintf("%s need=%s path=%s", sp.Detail, need, path))
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	want := []string{
		"( ? sub ? tag=a) need=all path=index",
		"( ? sub ? val<2) need=keys path=index",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("atomic spans:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if p := st.ExplainAtomic(q.(*query.Bool).Q2.(*query.Atomic), store.NeedAll); p.Path != store.PathScan {
		t.Errorf("val<2 for whole entries plans %s; the test needs the need to decide the path", p.Path)
	}
}
