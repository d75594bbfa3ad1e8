package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
)

// testSchema is a compact schema for randomized forests.
func testSchema() *model.Schema {
	s := model.NewSchema()
	s.MustDefineAttr("n", model.TypeString)   // node name (RDN attribute)
	s.MustDefineAttr("tag", model.TypeString) // random label
	s.MustDefineAttr("val", model.TypeInt)    // random multi-valued int
	s.MustDefineAttr("ref", model.TypeDN)     // random entry reference
	s.MustDefineClass("node", "n", "tag", "val", "ref")
	return s
}

// randForest builds a random instance of ~n entries with fanout bias,
// random tags/vals, and random DN-valued refs between entries.
func randForest(t testing.TB, r *rand.Rand, n int) *model.Instance {
	t.Helper()
	s := testSchema()
	in := model.NewInstance(s)
	dns := []model.DN{nil} // start from the virtual root
	for i := 0; i < n; i++ {
		parent := dns[r.Intn(len(dns))]
		if len(parent) > 6 { // cap depth
			parent = nil
		}
		dn := parent.Child(model.RDN{{Attr: "n", Value: fmt.Sprintf("e%d", i)}})
		e, err := model.NewEntryFromDN(s, dn)
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("node")
		e.Add("tag", model.String(string(rune('a'+r.Intn(3)))))
		for j := r.Intn(3); j > 0; j-- {
			e.Add("val", model.Int(int64(r.Intn(5))))
		}
		in.MustAdd(e)
		dns = append(dns, dn)
	}
	// Random references to existing entries (added after all exist).
	es := in.Entries()
	for _, e := range es {
		for j := r.Intn(3); j > 0; j-- {
			target := es[r.Intn(len(es))]
			e.Add("ref", model.DNValue(target.DN()))
		}
	}
	return in
}

func newEngine(t testing.TB, in *model.Instance, cfg Config) *Engine {
	t.Helper()
	d := pager.NewDisk(512)
	st, err := store.Build(d, in, store.Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return New(st, cfg)
}

func resultKeys(t testing.TB, l *plist.List) []string {
	t.Helper()
	recs, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key
		if i > 0 && out[i-1] >= out[i] {
			t.Fatal("engine output not strictly sorted")
		}
		if r.Entry == nil {
			t.Fatal("engine output record lacks entry")
		}
	}
	return out
}

// The aggregate selection filters exercised against random data.
var aggSelPool = []string{
	"",
	"count($2) > 0",
	"count($2) >= 2",
	"count($2) = max(count($2))",
	"min($2.val) <= 1",
	"max($2.val) >= 3",
	"sum($2.val) > 2",
	"average($2.val) >= 2",
	"count($2.val) != 1",
	"count(val) > 1",
	"min(val) = min(min(val))",
	"count($$) > 3",
	"count($1) <= 100",
	"sum(val) < count($$)",
}

func buildQueries(t testing.TB) []string {
	t.Helper()
	atoms := []string{
		"( ? sub ? tag=a)",
		"( ? sub ? tag=b)",
		"( ? sub ? val<3)",
		"( ? sub ? val>=2)",
		"( ? sub ? n=e1*)",
		"( ? sub ? objectClass=node)",
	}
	var qs []string
	// Booleans.
	for _, op := range []string{"&", "|", "-"} {
		qs = append(qs, fmt.Sprintf("(%s %s %s)", op, atoms[0], atoms[2]))
	}
	// Hierarchy ops with each aggregate selection.
	for _, op := range []string{"p", "c", "a", "d"} {
		for _, sel := range aggSelPool {
			qs = append(qs, fmt.Sprintf("(%s %s %s %s)", op, atoms[0], atoms[2], sel))
		}
	}
	for _, op := range []string{"ac", "dc"} {
		for _, sel := range aggSelPool {
			qs = append(qs, fmt.Sprintf("(%s %s %s %s %s)", op, atoms[0], atoms[2], atoms[1], sel))
		}
	}
	// Simple aggregate selection.
	for _, sel := range aggSelPool {
		if sel == "" || (&aggSelLike{sel}).usesWitness() {
			continue
		}
		qs = append(qs, fmt.Sprintf("(g %s %s)", atoms[5], sel))
	}
	// Embedded references.
	for _, op := range []string{"vd", "dv"} {
		for _, sel := range aggSelPool {
			qs = append(qs, fmt.Sprintf("(%s %s %s ref %s)", op, atoms[0], atoms[2], sel))
		}
	}
	// Nested compositions.
	qs = append(qs,
		fmt.Sprintf("(a (& %s %s) (| %s %s))", atoms[0], atoms[2], atoms[1], atoms[3]),
		fmt.Sprintf("(c (d %s %s) %s count($2) > 0)", atoms[5], atoms[0], atoms[1]),
		fmt.Sprintf("(vd (g %s count(val) >= 1) %s ref)", atoms[5], atoms[1]),
		fmt.Sprintf("(dv %s (dc %s %s %s) ref count($2) = max(count($2)))", atoms[0], atoms[5], atoms[1], atoms[2]),
	)
	return qs
}

// aggSelLike lets the query builder skip witness filters for g.
type aggSelLike struct{ s string }

func (a *aggSelLike) usesWitness() bool {
	sel, err := query.ParseAggSel(a.s)
	if err != nil {
		return false
	}
	return sel.UsesWitness() || containsCount1(sel)
}

func containsCount1(sel *query.AggSel) bool {
	for _, s := range []query.AggAttr{sel.Left, sel.Right} {
		if s.Kind == query.KindEntrySet && s.Form == query.SetCount1 {
			return true
		}
	}
	return false
}

func TestEngineMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 4; trial++ {
		in := randForest(t, r, 120)
		e := newEngine(t, in, Config{})
		for _, qs := range buildQueries(t) {
			q, err := query.Parse(qs)
			if err != nil {
				t.Fatalf("parse %q: %v", qs, err)
			}
			want := oracleEval(in, q).sortedKeys()
			l, err := e.Eval(q)
			if err != nil {
				t.Fatalf("trial %d, eval %q: %v", trial, qs, err)
			}
			got := resultKeys(t, l)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("trial %d: %s\n got %d: %v\nwant %d: %v", trial, qs, len(got), got, len(want), want)
			}
		}
	}
}

func TestNaiveMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	in := randForest(t, r, 70)
	e := newEngine(t, in, Config{Naive: true})
	for _, qs := range buildQueries(t) {
		q, err := query.Parse(qs)
		if err != nil {
			t.Fatalf("parse %q: %v", qs, err)
		}
		want := oracleEval(in, q).sortedKeys()
		l, err := e.Eval(q)
		if err != nil {
			t.Fatalf("naive eval %q: %v", qs, err)
		}
		got := resultKeys(t, l)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("naive %s\n got %v\nwant %v", qs, got, want)
		}
	}
}

func TestQuickEngineEqualsOracleOnRandomForests(t *testing.T) {
	// Property: across many random instances, the stack/sort-merge
	// engine agrees with the denotational oracle on every query shape.
	r := rand.New(rand.NewSource(23))
	queries := buildQueries(t)
	for trial := 0; trial < 12; trial++ {
		in := randForest(t, r, 20+r.Intn(100))
		e := newEngine(t, in, Config{StackWindow: 2})
		qs := queries[r.Intn(len(queries))]
		q := query.MustParse(qs)
		want := oracleEval(in, q).sortedKeys()
		l, err := e.Eval(q)
		if err != nil {
			t.Fatalf("trial %d eval %q: %v", trial, qs, err)
		}
		got := resultKeys(t, l)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, qs, got, want)
		}
	}
}

func TestPaperWorkedHierExamples(t *testing.T) {
	// A hand-built fragment mirroring Example 5.1: org units directly
	// containing a person with surName=jagadish.
	s := model.DefaultSchema()
	in := model.NewInstance(s)
	mk := func(dn string, cls string, avs ...model.AV) {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass(cls)
		for _, av := range avs {
			e.Add(av.Attr, av.Value)
		}
		in.MustAdd(e)
	}
	mk("dc=com", "dcObject")
	mk("dc=att, dc=com", "dcObject")
	mk("ou=research, dc=att, dc=com", "organizationalUnit")
	mk("ou=labs, dc=att, dc=com", "organizationalUnit")
	mk("ou=deep, ou=labs, dc=att, dc=com", "organizationalUnit")
	mk("uid=jag, ou=research, dc=att, dc=com", "inetOrgPerson",
		model.AV{Attr: "surName", Value: model.String("jagadish")})
	mk("uid=x, ou=deep, ou=labs, dc=att, dc=com", "inetOrgPerson",
		model.AV{Attr: "surName", Value: model.String("jagadish")})

	d := pager.NewDisk(512)
	st, err := store.Build(d, in, store.Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, Config{})

	// children: ou=research and ou=deep directly contain a jagadish;
	// ou=labs only transitively, so it must be excluded.
	got, err := entriesOf(e, query.MustParse(
		`(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)
		    (dc=att, dc=com ? sub ? surName=jagadish))`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("children: %v", got)
	}
	for _, e := range got {
		if ou, _ := e.First("ou"); ou.Str() == "labs" {
			t.Fatal("children leaked transitive containment (labs)")
		}
	}

	// ancestors (d-style, Example 5.2 shape): org units with some
	// jagadish descendant: research, labs, deep.
	got, err = entriesOf(e, query.MustParse(
		`(d (dc=att, dc=com ? sub ? objectClass=organizationalUnit)
		    (dc=att, dc=com ? sub ? surName=jagadish))`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("descendants: %d entries", len(got))
	}
}

func TestDifferenceExample41(t *testing.T) {
	// Example 4.1: jagadish in AT&T except Research — inexpressible in
	// LDAP, expressible in L0.
	s := model.DefaultSchema()
	in := model.NewInstance(s)
	mk := func(dn string, cls string, sn string) {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass(cls)
		if sn != "" {
			e.Add("surName", model.String(sn))
		}
		in.MustAdd(e)
	}
	mk("dc=com", "dcObject", "")
	mk("dc=att, dc=com", "dcObject", "")
	mk("dc=research, dc=att, dc=com", "dcObject", "")
	mk("uid=j1, dc=att, dc=com", "inetOrgPerson", "jagadish")
	mk("uid=j2, dc=research, dc=att, dc=com", "inetOrgPerson", "jagadish")

	e := newEngineFromInstance(t, in)
	got, err := entriesOf(e, query.MustParse(
		`(- (dc=att, dc=com ? sub ? surName=jagadish)
		    (dc=research, dc=att, dc=com ? sub ? surName=jagadish))`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].DN().String() != "uid=j1, dc=att, dc=com" {
		t.Fatalf("difference: %v", got)
	}
}

// entriesOf evaluates q and drains the result into memory.
func entriesOf(e *Engine, q query.Query) ([]*model.Entry, error) {
	l, err := e.Eval(q)
	if err != nil {
		return nil, err
	}
	recs, err := plist.Drain(l)
	if err != nil {
		return nil, err
	}
	out := make([]*model.Entry, len(recs))
	for i, r := range recs {
		out[i] = r.Entry
	}
	return out, l.Free()
}

func newEngineFromInstance(t testing.TB, in *model.Instance) *Engine {
	t.Helper()
	d := pager.NewDisk(512)
	st, err := store.Build(d, in, store.Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return New(st, Config{})
}

func TestStackWindowInvariance(t *testing.T) {
	// Results must not depend on the stack's resident window (only I/O
	// counts may change).
	r := rand.New(rand.NewSource(31))
	in := randForest(t, r, 150)
	q := query.MustParse("(d ( ? sub ? tag=a) ( ? sub ? tag=b) count($2) >= 1)")
	var ref []string
	for i, win := range []int{2, 3, 8, 64} {
		e := newEngine(t, in, Config{StackWindow: win})
		l, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got := resultKeys(t, l)
		if i == 0 {
			ref = got
		} else if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("window %d changed results", win)
		}
	}
}

func TestHierLinearIOvsNaiveQuadratic(t *testing.T) {
	// E10 smoke test: growing N, stack I/O per input page stays bounded
	// while naive I/O per input page grows.
	measure := func(naive bool, n int) (io int64, pages int) {
		r := rand.New(rand.NewSource(40))
		in := randForest(t, r, n)
		base := newEngine(t, in, Config{Naive: naive})
		arena := pager.NewArena(base.Store().Disk())
		e := base.Session(arena)
		q := query.MustParse("(a ( ? sub ? tag=a) ( ? sub ? tag=b))")
		l1, err := e.Eval(q.(*query.Hier).Q1)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := e.Eval(q.(*query.Hier).Q2)
		if err != nil {
			t.Fatal(err)
		}
		pages = l1.Pages() + l2.Pages()
		before := arena.Stats()
		var out *plist.List
		if naive {
			out, err = e.NaiveHier(query.OpAncestors, l1, l2, nil, nil)
		} else {
			out, err = e.ComputeHSAD(query.OpAncestors, l1, l2)
		}
		if err != nil {
			t.Fatal(err)
		}
		_ = out
		return arena.Stats().Sub(before).IO(), pages
	}
	fastSmall, pSmall := measure(false, 200)
	fastBig, pBig := measure(false, 1600)
	ratioSmall := float64(fastSmall) / float64(pSmall)
	ratioBig := float64(fastBig) / float64(pBig)
	if ratioBig > ratioSmall*3 {
		t.Errorf("stack algorithm I/O per page grew: %.1f -> %.1f", ratioSmall, ratioBig)
	}
	naiveSmall, _ := measure(true, 200)
	naiveBig, _ := measure(true, 1600)
	// Naive is quadratic: 8x the input must cost much more than 8x.
	if naiveBig < naiveSmall*16 {
		t.Errorf("naive I/O did not grow quadratically: %d -> %d", naiveSmall, naiveBig)
	}
	if fastBig*4 > naiveBig {
		t.Errorf("stack algorithm (%d) not clearly cheaper than naive (%d) at N=1600", fastBig, naiveBig)
	}
}

func TestEngineFreesIntermediates(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	in := randForest(t, r, 80)
	base := newEngine(t, in, Config{})
	arena := pager.NewArena(base.Store().Disk())
	e := base.Session(arena)
	before := arena.Scratch().NumPages()
	q := query.MustParse("(c (& ( ? sub ? tag=a) ( ? sub ? val<4)) (| ( ? sub ? tag=b) ( ? sub ? tag=c)) count($2) > 0)")
	l, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	after := arena.Scratch().NumPages()
	if after > before+l.Pages() {
		t.Errorf("leaked pages: %d before, %d after, result %d", before, after, l.Pages())
	}
}
