package core

import (
	"testing"

	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/workload"
)

// TestBooleanMergeAllocatesPerPage: the boolean merge moves records as
// the bytes their readers hold, so what it allocates is readers, a
// writer and the pages it writes — a fixed cost plus a cost per page,
// nothing per record. Three operand pairs are merged: N records, 4N
// records of the same shape, and N records each several times the size
// (an embedding rides along). Going from the first to the second adds
// pages by adding records, going to the third adds pages alone; the
// allocations each added page costs must agree within 1.5×, and no pair
// may cost more than one allocation per page. An allocation per record
// would make the first rate some twenty times the second.
func TestBooleanMergeAllocatesPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the build's")
	}
	const n = 1500
	measure := func(cfg workload.ForestConfig) (allocs, pages float64) {
		dir, err := Open(workload.RandomForest(cfg), Options{})
		if err != nil {
			t.Fatal(err)
		}
		arena := pager.NewArena(dir.Disk())
		eng := dir.Engine().Session(arena)
		var ls [2]*plist.List
		for i, a := range []string{"( ? sub ? tag=a)", "( ? sub ? val<4)"} {
			if ls[i], err = eng.Store().EvalArena(arena, query.MustParse(a).(*query.Atomic)); err != nil {
				t.Fatal(err)
			}
		}
		allocs = testing.AllocsPerRun(5, func() {
			out, err := eng.EvalBool(query.OpAnd, ls[0], ls[1])
			if err != nil {
				t.Fatal(err)
			}
			pages = float64(ls[0].Pages() + ls[1].Pages() + out.Pages())
			if out.Count() == 0 {
				t.Fatal("empty intersection: nothing was copied through")
			}
			if err := out.Free(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("N=%d dim=%d: %d & %d records on %.0f pages, %.0f allocations",
			cfg.N, cfg.VecDim, ls[0].Count(), ls[1].Count(), pages, allocs)
		if allocs > pages {
			t.Errorf("N=%d dim=%d: %.0f allocations for %.0f pages", cfg.N, cfg.VecDim, allocs, pages)
		}
		return allocs, pages
	}
	a0, p0 := measure(workload.ForestConfig{N: n, Seed: 99})
	a1, p1 := measure(workload.ForestConfig{N: 4 * n, Seed: 99})
	a2, p2 := measure(workload.ForestConfig{N: n, Seed: 99, VecDim: 96})
	byRecords, bySize := (a1-a0)/(p1-p0), (a2-a0)/(p2-p0)
	if byRecords > 1.5*bySize || bySize > 1.5*byRecords {
		t.Fatalf("an added page costs %.2f allocations when records are added, %.2f when they grow: not a per-page cost", byRecords, bySize)
	}
}
