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
	out, err := witness(l)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// witness is resultBytes for a goroutine that may not call t.Fatal.
func witness(l *plist.List) ([]string, error) {
	recs, err := plist.Drain(l)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key + "\x00" + ldif.MarshalEntry(r.Entry)
	}
	return out, nil
}

// TestResolverErrorReturnedAsIs: when the resolver fails on the first
// atomic, evaluation stops there and returns the resolver's error
// itself; no later atomic is resolved.
func TestResolverErrorReturnedAsIs(t *testing.T) {
	r := rand.New(rand.NewSource(203))
	in := randForest(t, r, 40)
	e := newEngine(t, in, Config{})
	boom := errors.New("boom")
	calls := 0
	arena := pager.NewArena(e.st.Disk())
	sess := e.Session(arena)
	sess.SetResolver(func(ctx context.Context, q *query.Atomic) (*plist.List, error) {
		if calls++; calls == 1 {
			return nil, boom
		}
		return e.st.EvalArena(arena, q)
	})
	q := query.MustParse("(| (& ( ? sub ? tag=a) ( ? sub ? tag=b)) (& ( ? sub ? val<3) ( ? sub ? val>=1)))")
	if _, err := sess.Eval(q); err != boom {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if calls != 1 {
		t.Fatalf("resolver called %d times, want 1", calls)
	}
}

// TestCancelledContext: evaluation under a cancelled context returns
// context.Canceled.
func TestCancelledContext(t *testing.T) {
	r := rand.New(rand.NewSource(204))
	in := randForest(t, r, 40)
	e := newEngine(t, in, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := query.MustParse("(& ( ? sub ? tag=a) ( ? sub ? tag=b))")
	if _, err := e.EvalContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestConcurrentSessionsStress runs deep, wide queries from several
// goroutines, each on its own session of one engine — the -race
// exercise for what concurrent queries share: the store's disk, the
// B+tree pages read in place through its views, and the pager's read
// path. Every answer must equal the
// one the query gets alone.
func TestConcurrentSessionsStress(t *testing.T) {
	r := rand.New(rand.NewSource(205))
	in := randForest(t, r, 120)
	e := newEngine(t, in, Config{SortMemBytes: 1024})
	wide := "(| (| (& ( ? sub ? tag=a) ( ? sub ? val>=1)) (d ( ? sub ? tag=b) ( ? sub ? val<2)))" +
		" (| (& ( ? sub ? tag=c) ( ? sub ? val>=3)) (d ( ? sub ? val>=0) ( ? sub ? tag=a))))"
	q := query.MustParse(wide)
	l, err := e.Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(resultBytes(t, l))
	const goroutines = 4
	iters := 10
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l, err := e.Session(pager.NewArena(e.st.Disk())).Eval(q)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := witness(l)
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(got) != want {
					t.Errorf("goroutine %d iteration %d diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
