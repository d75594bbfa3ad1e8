package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ldif"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// resultBytes drains a list into its byte-identity witness: every
// record's key and full LDIF serialization, in list order.
func resultBytes(t testing.TB, l *plist.List) []string {
	t.Helper()
	recs, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key + "\x00" + ldif.MarshalEntry(r.Entry)
	}
	return out
}

// TestParallelMatchesSerial is the DESIGN.md §9 oracle: every L0–L3
// query over random forests evaluates byte-identically at Workers=1
// and Workers=8 — same keys, same entries, same order.
func TestParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(201))
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		in := randForest(t, r, 15+r.Intn(60))
		serial := newEngine(t, in, Config{StackWindow: 2, Workers: 1})
		par := newEngine(t, in, Config{StackWindow: 2, Workers: 8, SortMemBytes: 1024})
		q := randQuery(r, 2+r.Intn(2))
		if err := query.Validate(in.Schema(), q); err != nil {
			t.Fatalf("generator produced invalid query %s: %v", q, err)
		}
		ls, err := serial.Eval(q)
		if err != nil {
			t.Fatalf("trial %d serial eval %s: %v", trial, q, err)
		}
		want := resultBytes(t, ls)
		lp, err := par.Eval(q)
		if err != nil {
			t.Fatalf("trial %d parallel eval %s: %v", trial, q, err)
		}
		got := resultBytes(t, lp)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s\nWorkers=8 diverges from Workers=1\n got %v\nwant %v", trial, q, got, want)
		}
	}
}

// TestParallelFixedQueriesMatchSerial runs the package's fixed query
// pool (every operator and aggregate form) through both engines.
func TestParallelFixedQueriesMatchSerial(t *testing.T) {
	r := rand.New(rand.NewSource(202))
	in := randForest(t, r, 80)
	serial := newEngine(t, in, Config{Workers: 1})
	par := newEngine(t, in, Config{Workers: 8})
	for _, text := range buildQueries(t) {
		q, err := query.Parse(text)
		if err != nil {
			t.Fatalf("parse %s: %v", text, err)
		}
		ls, err := serial.Eval(q)
		if err != nil {
			t.Fatalf("serial %s: %v", text, err)
		}
		want := resultBytes(t, ls)
		lp, err := par.Eval(q)
		if err != nil {
			t.Fatalf("parallel %s: %v", text, err)
		}
		if got := resultBytes(t, lp); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Workers=8 diverges from Workers=1", text)
		}
	}
}

// TestParallelResolverErrorWins verifies the scheduler's error
// contract: when one subtree fails, siblings are cancelled but the
// reported error is the real failure, never the context.Canceled the
// cancellation induced.
func TestParallelResolverErrorWins(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	in := randForest(t, r, 40)
	e := newEngine(t, in, Config{Workers: 8})
	boom := errors.New("boom")
	var calls int32
	var mu sync.Mutex
	arena := pager.NewArena(e.st.Disk())
	sess := e.Session(arena)
	sess.SetResolver(func(ctx context.Context, q *query.Atomic) (*plist.List, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			return nil, boom
		}
		return e.st.EvalArena(arena, q)
	})
	q := query.MustParse("(| (& ( ? sub ? tag=a) ( ? sub ? tag=b)) (& ( ? sub ? val<3) ( ? sub ? val>=1)))")
	if _, err := sess.Eval(q); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
}

// TestParallelCancellation verifies that a cancelled context surfaces
// promptly as context.Canceled from a parallel evaluation.
func TestParallelCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	in := randForest(t, r, 40)
	e := newEngine(t, in, Config{Workers: 8})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := query.MustParse("(& ( ? sub ? tag=a) ( ? sub ? tag=b))")
	if _, err := e.EvalContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestParallelStress hammers one parallel engine with deep, wide
// queries — the -race exercise for the worker pool, the shared buffer
// pools, and the pager's concurrent read path.
func TestParallelStress(t *testing.T) {
	r := rand.New(rand.NewSource(205))
	in := randForest(t, r, 120)
	e := newEngine(t, in, Config{Workers: 8, SortMemBytes: 1024})
	wide := "(| (| (& ( ? sub ? tag=a) ( ? sub ? val>=1)) (d ( ? sub ? tag=b) ( ? sub ? val<2)))" +
		" (| (& ( ? sub ? tag=c) ( ? sub ? val>=3)) (d ( ? sub ? val>=0) ( ? sub ? tag=a))))"
	q := query.MustParse(wide)
	var want []string
	iters := 20
	if testing.Short() {
		iters = 4
	}
	for i := 0; i < iters; i++ {
		l, err := e.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		got := resultBytes(t, l)
		if i == 0 {
			want = got
		} else if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iteration %d diverged", i)
		}
	}
}
