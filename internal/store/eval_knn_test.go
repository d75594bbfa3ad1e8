package store

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/workload"
)

const knnDim = 6

// knnInstance is a clustered-embedding forest for knn tests.
func knnInstance(n int, seed int64) *model.Instance {
	return workload.RandomForest(workload.ForestConfig{N: n, Seed: seed, VecDim: knnDim})
}

// knnQuery renders a knn atomic query string.
func knnQuery(base string, scope string, vec []float32, k int) string {
	return fmt.Sprintf("(%s ? %s ? knn(emb,%s,%d))", base, scope, model.FormatVector(vec), k)
}

// drainRecords drains a result list and sanity-checks the sort invariant.
func drainRecords(t *testing.T, l *plist.List) []*plist.Record {
	t.Helper()
	recs, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i-1].Key >= recs[i].Key {
			t.Fatal("knn result not strictly sorted by reverse-DN key")
		}
	}
	return recs
}

// sameRecords requires two result lists to agree record for record —
// the byte-identity contract between the index and scan paths.
func sameRecords(t *testing.T, label string, a, b []*plist.Record) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d results", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			t.Fatalf("%s: result %d key %q vs %q", label, i, a[i].Key, b[i].Key)
		}
		if a[i].Entry == nil || b[i].Entry == nil || !a[i].Entry.Equal(b[i].Entry) {
			t.Fatalf("%s: result %d entries differ at key %q", label, i, a[i].Key)
		}
	}
}

// TestKNNIndexByteIdenticalToScan is the tentpole's correctness pin:
// across scope shapes, k values and tie-heavy data, the index-backed
// path (Eval) and the brute-force oracle (EvalScan) return identical
// result lists.
func TestKNNIndexByteIdenticalToScan(t *testing.T) {
	in := knnInstance(300, 21)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.VectorIndex("emb") == nil {
		t.Fatal("vector index not built")
	}

	// Bases at several depths, plus a miss.
	var deep, deeper string
	for _, e := range in.Entries() {
		switch e.DN().Depth() {
		case 2:
			if deep == "" {
				deep = e.DN().String()
			}
		case 3:
			if deeper == "" {
				deeper = e.DN().String()
			}
		}
	}
	if deep == "" || deeper == "" {
		t.Fatal("forest too shallow for the test")
	}
	root := in.Entries()[0].DN().String()

	r := rand.New(rand.NewSource(22))
	randVec := func() []float32 {
		v := make([]float32, knnDim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		return v
	}
	// An exact entry vector forces a zero-distance hit; a constant
	// vector makes many near-ties under clustered data.
	exact, _ := in.Entries()[len(in.Entries())/2].First("emb")
	vectors := [][]float32{randVec(), randVec(), exact.Vec(), make([]float32, knnDim)}

	cases := []struct{ base, scope string }{
		{"", "sub"}, // whole instance
		{root, "sub"},
		{deep, "sub"},
		{deeper, "sub"},
		{root, "one"},
		{deep, "one"},
		{deep, "base"},
		{"n=absent", "sub"}, // empty scope
	}
	sawIndexPath := false
	for _, c := range cases {
		for _, k := range []int{1, 3, 25, 1000} {
			for vi, vec := range vectors {
				text := knnQuery(c.base, c.scope, vec, k)
				q := query.MustParse(text).(*query.Atomic)
				li, err := st.Eval(q)
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				ls, err := st.EvalScan(q)
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				// The index path also where the store would not choose it.
				lf, err := forcePath(st.legacyEnv(), q, PathKNNIndex)
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				label := fmt.Sprintf("base=%q scope=%s k=%d vec=%d", c.base, c.scope, k, vi)
				want := drainRecords(t, ls)
				sameRecords(t, label, drainRecords(t, li), want)
				sameRecords(t, label+" forced knn-index", drainRecords(t, lf), want)
				if st.ExplainAtomic(q).Path == "knn-index" {
					sawIndexPath = true
				}
			}
		}
	}
	if !sawIndexPath {
		t.Error("no case exercised the knn-index path; the identity test is vacuous")
	}
}

// TestKNNTieBreak pins the tie order on exactly-equal distances: ties
// resolve by reverse-DN key ascending, on both paths.
func TestKNNTieBreak(t *testing.T) {
	s := workload.ForestVecSchema(2)
	in := model.NewInstance(s)
	add := func(dn string, vec []float32) {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("node")
		e.Add("emb", model.VectorValue(vec))
		in.MustAdd(e)
	}
	add("n=root", []float32{9, 9})
	// Five children all at distance 1 from the origin.
	for i := 0; i < 5; i++ {
		add(fmt.Sprintf("n=c%d, n=root", i), []float32{1, 0})
	}
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 5, 9} {
		q := query.MustParse(knnQuery("n=root", "sub", []float32{0, 0}, k)).(*query.Atomic)
		li, err := st.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := st.EvalScan(q)
		if err != nil {
			t.Fatal(err)
		}
		ri, rs := drainRecords(t, li), drainRecords(t, ls)
		sameRecords(t, fmt.Sprintf("k=%d", k), ri, rs)
		// The k tied winners must be the k smallest keys among the
		// distance-1 children, i.e. c0..c(k-1), plus root last at k>5.
		wantTies := k
		if wantTies > 5 {
			wantTies = 5
		}
		for i := 0; i < wantTies; i++ {
			wantKey := model.MustParseDN(fmt.Sprintf("n=c%d, n=root", i)).Key()
			found := false
			for _, rec := range ri {
				if rec.Key == wantKey {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("k=%d: tie-break dropped c%d: got %d recs", k, i, len(ri))
			}
		}
	}
}

// TestKNNExplainPaths checks the planner-visible access-path choice: a
// selective deep subtree reports knn-index, and estimates carry k.
func TestKNNExplainPaths(t *testing.T) {
	in := knnInstance(400, 31)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	// The index wins where the subtree's master extent clearly exceeds
	// its posting extent: pick the most populous top-level subtree.
	counts := map[string]int{}
	for _, e := range in.Entries() {
		dn := e.DN()
		counts[dn[len(dn)-1].String()]++
	}
	var deep string
	best := 0
	for base, n := range counts {
		if n > best {
			deep, best = base, n
		}
	}
	if best < 20 {
		t.Fatalf("largest top-level subtree has only %d entries", best)
	}
	vec := make([]float32, knnDim)
	q := query.MustParse(knnQuery(deep, "sub", vec, 2)).(*query.Atomic)
	p := st.ExplainAtomic(q)
	if p.Path != "knn-index" {
		t.Errorf("deep subtree path = %q, want knn-index", p.Path)
	}
	if p.EstHits != 2 {
		t.Errorf("EstHits = %d, want k = 2", p.EstHits)
	}
	// Base scope stays a point lookup regardless of the filter.
	qb := query.MustParse(knnQuery(deep, "base", vec, 2)).(*query.Atomic)
	if p := st.ExplainAtomic(qb); p.Path != "base-point" {
		t.Errorf("base scope path = %q, want base-point", p.Path)
	}
	// Without the attribute index there is no vector index: scan.
	st2, err := Build(pager.NewDisk(1024), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p := st2.ExplainAtomic(q); p.Path != "knn-scan" {
		t.Errorf("unindexed path = %q, want knn-scan", p.Path)
	}
}

// TestKNNScopedSearchReadsLess pins the E22 effect at the store level:
// answering knn inside a selective subtree must cost less base-disk I/O
// than a whole-instance knn (the post-filtering strawman reads the full
// posting list no matter the scope).
func TestKNNScopedSearchReadsLess(t *testing.T) {
	in := knnInstance(600, 41)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	var deep string
	for _, e := range in.Entries() {
		if e.DN().Depth() >= 3 {
			deep = e.DN().String()
			break
		}
	}
	if deep == "" {
		t.Fatal("no deep entry")
	}
	vec := make([]float32, knnDim)
	reads := func(text string) int64 {
		a := pager.NewArena(d)
		q := query.MustParse(text).(*query.Atomic)
		l, err := st.EvalArena(a, q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plist.Drain(l); err != nil {
			t.Fatal(err)
		}
		return a.Meter().Stats().Reads
	}
	sub := reads(knnQuery(deep, "sub", vec, 3))
	global := reads(knnQuery("", "sub", vec, 3))
	if sub == 0 {
		t.Fatal("scoped knn reported zero metered reads")
	}
	if sub >= global {
		t.Errorf("scoped knn read %d pages, global knn %d — scope not exploited", sub, global)
	}
}
