package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/query"
	"repro/internal/workload"
)

// l2Query is an L2 pipeline over the bench forest preset (the same
// shape E8 measures): hierarchical selection over boolean combinations
// of four atomics, with an aggregate-selection filter.
const l2Query = `(c (& ( ? sub ? tag=a) ( ? sub ? val<5)) (| ( ? sub ? tag=b) ( ? sub ? tag=c)) count($2) > 0)`

func forestDir(t testing.TB, n int) *Directory {
	t.Helper()
	in := workload.RandomForest(workload.ForestConfig{N: n, Seed: 6})
	dir, err := Open(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestTraceIOConservation is the tentpole acceptance check: on an L2
// query over the bench preset, the span tree's per-operator pager.Stats
// deltas sum exactly to the query's total arena delta — every page
// access is attributed to exactly one operator.
func TestTraceIOConservation(t *testing.T) {
	dir := forestDir(t, 1500)
	q, err := query.Parse(l2Query)
	if err != nil {
		t.Fatal(err)
	}

	// Measure the raw session delta around the traced evaluation.
	arena := pager.NewArena(dir.Disk())
	tr := obs.NewTracer(arena)
	ctx := obs.WithTracer(context.Background(), tr)
	before := arena.Stats()
	l, err := dir.Engine().Session(arena).EvalContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	delta := arena.Stats().Sub(before)
	if err := l.Free(); err != nil {
		t.Fatal(err)
	}

	root := tr.Root()
	if root == nil {
		t.Fatal("traced evaluation produced no span tree")
	}
	if delta.IO() == 0 {
		t.Fatal("query performed no I/O; the conservation check is vacuous")
	}
	if root.IO != delta {
		t.Fatalf("root span IO %v != arena delta %v", root.IO, delta)
	}
	var sum pager.Stats
	var spans int
	root.Walk(func(s *obs.Span) {
		sum = sum.Add(s.SelfIO())
		spans++
	})
	if sum != delta {
		t.Fatalf("summed per-operator self IO %v != arena delta %v", sum, delta)
	}
	// The L2 tree has 7 operators: c, &, |, and four atomics.
	if spans != 7 {
		t.Fatalf("span count = %d, want 7", spans)
	}
	if root.Op != "c" {
		t.Fatalf("root op = %q, want c", root.Op)
	}
}

// TestSearchTraced exercises the public surface: Result.IO equals the
// root span's IO, cardinalities are recorded, and the rendered tree
// names every operator.
func TestSearchTraced(t *testing.T) {
	dir := forestDir(t, 800)
	res, root, err := dir.SearchTraced(l2Query)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatal("no span tree")
	}
	if res.IO != root.IO {
		t.Fatalf("Result.IO %v != root span IO %v", res.IO, root.IO)
	}
	if root.Out != int64(len(res.Entries)) {
		t.Fatalf("root out = %d, want %d entries", root.Out, len(res.Entries))
	}
	if len(root.In) != 2 {
		t.Fatalf("root inputs = %v, want 2 cardinalities", root.In)
	}
	atoms := 0
	root.Walk(func(s *obs.Span) {
		if s.Op == "atomic" {
			atoms++
			if s.Detail == "" {
				t.Error("atomic span missing its query text")
			}
		}
	})
	if atoms != 4 {
		t.Fatalf("atomic spans = %d, want 4", atoms)
	}
	var b strings.Builder
	root.Format(&b)
	for _, op := range []string{"c ", "& ", "| ", "atomic"} {
		if !strings.Contains(b.String(), op) {
			t.Errorf("rendered tree missing operator %q:\n%s", op, b.String())
		}
	}
}

// TestSearchTracedBypassesCache: tracing always evaluates, so a cached
// directory still yields a full span tree and real I/O.
func TestSearchTracedBypassesCache(t *testing.T) {
	in := workload.RandomForest(workload.ForestConfig{N: 400, Seed: 6})
	dir, err := Open(in, Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Search(l2Query); err != nil { // warm the cache
		t.Fatal(err)
	}
	res, root, err := dir.SearchTraced(l2Query)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil || res.IO.IO() == 0 {
		t.Fatal("traced search appears to have been served from the cache")
	}
}

// TestSearchQueryTracedHonorsDeadline: a context whose deadline already
// passed stops the evaluation before any operator runs.
func TestSearchQueryTracedHonorsDeadline(t *testing.T) {
	dir := forestDir(t, 200)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, _, err := dir.SearchLDAPTraced(ctx, `( ? sub ? tag=a)`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v, want DeadlineExceeded", err)
	}
}

// BenchmarkSearchUntraced/Traced bound the tracer's overhead: the
// untraced path must stay within noise of the pre-obs engine (a nil
// check per operator), the traced path shows the cost of opting in.
func BenchmarkSearchUntraced(b *testing.B) {
	dir := forestDir(b, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dir.Search(l2Query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchTraced(b *testing.B) {
	dir := forestDir(b, 1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dir.SearchTraced(l2Query); err != nil {
			b.Fatal(err)
		}
	}
}
