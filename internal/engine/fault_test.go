package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/query"
)

// faultySession returns a session whose store disk and scratch disk
// both consult fault — every page the evaluation reads or writes.
func faultySession(t *testing.T, in *model.Instance, cfg Config, fault func(string, pager.PageID) error) *Engine {
	t.Helper()
	base := newEngine(t, in, cfg)
	arena := pager.NewArena(base.Store().Disk())
	arena.Base().SetFault(fault)
	arena.Scratch().SetFault(fault)
	return base.Session(arena)
}

// TestFaultInjectionPropagates drives every operator over a disk that
// fails after a budget of operations and asserts the failure surfaces
// as an error (never a panic, never a silent wrong answer).
func TestFaultInjectionPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	in := randForest(t, r, 120)

	queries := []string{
		"(& ( ? sub ? tag=a) ( ? sub ? tag=b))",
		"(a ( ? sub ? tag=a) ( ? sub ? tag=b))",
		"(dc ( ? sub ? tag=a) ( ? sub ? tag=b) ( ? sub ? tag=c))",
		"(g ( ? sub ? objectClass=node) count(val) > 1)",
		"(c ( ? sub ? tag=a) ( ? sub ? tag=b) count($2) = max(count($2)))",
		"(vd ( ? sub ? tag=a) ( ? sub ? tag=b) ref)",
		"(dv ( ? sub ? tag=a) ( ? sub ? tag=b) ref count($2) >= 1)",
	}
	boom := errors.New("injected disk fault")

	for _, qs := range queries {
		q := query.MustParse(qs)
		// Find the fault-free operation count, then fail at a few points
		// inside it.
		var total int64
		e := faultySession(t, in, Config{StackWindow: 2}, func(op string, _ pager.PageID) error {
			total++
			return nil
		})
		if _, err := e.Eval(q); err != nil {
			t.Fatalf("%s: fault-free eval failed: %v", qs, err)
		}

		for _, frac := range []float64{0.1, 0.5, 0.9} {
			budget := int64(float64(total) * frac)
			if budget == 0 {
				continue
			}
			var n int64
			e := faultySession(t, in, Config{StackWindow: 2}, func(op string, _ pager.PageID) error {
				n++
				if n > budget {
					return boom
				}
				return nil
			})
			_, err := e.Eval(q)
			// The budget is measured on a different engine instance, so
			// counts shift slightly; either the query finished before the
			// fault or the fault must propagate.
			if err != nil && !errors.Is(err, boom) {
				t.Errorf("%s at %.0f%%: foreign error %v", qs, frac*100, err)
			}
		}
	}
}

// TestFaultDuringAtomicEval exercises the store's index paths under
// failure.
func TestFaultDuringAtomicEval(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	in := randForest(t, r, 200)
	boom := errors.New("boom")
	var n int
	e := faultySession(t, in, Config{}, func(op string, _ pager.PageID) error {
		n++
		if op == "read" && n > 10 {
			return boom
		}
		return nil
	})
	_, err := e.Eval(query.MustParse("( ? sub ? n=e1*)"))
	if err != nil && !errors.Is(err, boom) {
		t.Fatalf("foreign error: %v", err)
	}
	if err == nil {
		t.Log("query finished under budget; acceptable")
	}
}
