package engine

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
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

// TestOperatorsFreeTheirOutputOnReadError fails scratch read k, for
// every k, of a boolean merge, a hierarchical stack operator, both
// reference joins and an atomic that spools and sorts: each must return
// the injected error and leave the scratch disk holding exactly the
// pages it held before — its inputs, and nothing of the output list it
// was writing or of the intermediates it made on the way.
func TestOperatorsFreeTheirOutputOnReadError(t *testing.T) {
	in := randForest(t, rand.New(rand.NewSource(113)), 1500)
	boom := errors.New("boom")
	for _, op := range []struct {
		name string
		run  func(e *Engine, l1, l2 *plist.List) (*plist.List, error)
	}{
		{"EvalBool(|)", func(e *Engine, l1, l2 *plist.List) (*plist.List, error) {
			return e.EvalBool(query.OpOr, l1, l2)
		}},
		{"ComputeHSAD(d)", func(e *Engine, l1, l2 *plist.List) (*plist.List, error) {
			return e.ComputeHSAD(query.OpDescendants, l1, l2)
		}},
		{"ComputeERAggDV", func(e *Engine, l1, l2 *plist.List) (*plist.List, error) {
			return e.ComputeERAggDV(l1, l2, "ref", nil)
		}},
		{"ComputeERAggVD", func(e *Engine, l1, l2 *plist.List) (*plist.List, error) {
			return e.ComputeERAggVD(l1, l2, "ref", nil)
		}},
		// An index plan over an integer range spools its hits, sorts
		// them and fetches in key order (store's collect); wider ranges
		// plan as scope scans on this forest.
		{"atomic ( ? sub ? val<1)", func(e *Engine, _, _ *plist.List) (*plist.List, error) {
			return e.Eval(query.MustParse("( ? sub ? val<1)"))
		}},
	} {
		base := newEngine(t, in, Config{StackWindow: 2})
		arena := pager.NewArena(base.Store().Disk())
		e := base.Session(arena)
		l1, err := e.Eval(query.MustParse("( ? sub ? tag=a)"))
		if err != nil {
			t.Fatal(err)
		}
		l2, err := e.Eval(query.MustParse("( ? sub ? tag=b)"))
		if err != nil {
			t.Fatal(err)
		}
		scratch := arena.Scratch()
		total := 0
		scratch.SetFault(func(kind string, _ pager.PageID) error {
			if kind == "read" {
				total++
			}
			return nil
		})
		out, err := op.run(e, l1, l2)
		if err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if err := out.Free(); err != nil {
			t.Fatal(err)
		}
		if total == 0 {
			t.Fatalf("%s read no scratch pages", op.name)
		}
		before := scratch.NumPages()
		for failAt := 1; failAt <= total; failAt++ {
			reads := 0
			scratch.SetFault(func(kind string, _ pager.PageID) error {
				if kind == "read" {
					if reads++; reads == failAt {
						return boom
					}
				}
				return nil
			})
			if _, err := op.run(e, l1, l2); !errors.Is(err, boom) {
				t.Fatalf("%s, scratch read %d of %d failing: error %v, want %v", op.name, failAt, total, err, boom)
			}
			if got := scratch.NumPages(); got != before {
				t.Fatalf("%s, scratch read %d of %d failing: %d scratch pages live, %d before", op.name, failAt, total, got, before)
			}
		}
	}
}
