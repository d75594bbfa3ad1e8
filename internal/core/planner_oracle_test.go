package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/query"
	"repro/internal/workload"
)

// randPlanQuery generates random L0–L2 trees over the random-forest
// vocabulary: atomics on both sides of the store's index-vs-scan
// comparison, nested sub scopes the planner narrows, boolean chains and
// hierarchy operators.
func randPlanQuery(r *rand.Rand, depth int) query.Query {
	if depth <= 0 || r.Intn(3) == 0 {
		return randPlanAtomic(r)
	}
	switch r.Intn(4) {
	case 0, 1:
		return &query.Bool{
			Op: query.BoolOp(r.Intn(3)),
			Q1: randPlanQuery(r, depth-1),
			Q2: randPlanQuery(r, depth-1),
		}
	case 2:
		op := query.HierOp(r.Intn(4)) // p, c, a, d — the binary operators
		return &query.Hier{Op: op, Q1: randPlanQuery(r, depth-1), Q2: randPlanQuery(r, depth-1)}
	default:
		return randPlanAtomic(r)
	}
}

func randPlanAtomic(r *rand.Rand) *query.Atomic {
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

// TestPlannerOracle is the core-level differential that crosses
// rewrites × arena sessions × tracing: on randomized query trees, a
// directory opened with Optimize answers byte-identically to the naive
// engine with no planner at all, through Search and through
// SearchTraced (spans on).
func TestPlannerOracle(t *testing.T) {
	in := workload.RandomForest(workload.ForestConfig{N: 500, Seed: 23})
	naive, err := Open(in, Options{Engine: engine.Config{Naive: true}})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Open(in, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(41))
	for i := 0; i < 80; i++ {
		q := randPlanQuery(r, 3)
		if query.Validate(naive.Schema(), q) != nil {
			continue
		}
		want, _, err := naive.SearchWith(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatalf("naive %s: %v", q, err)
		}
		plain, _, err := twin.SearchWith(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		traced, _, err := twin.SearchWith(context.Background(), Request{Query: q, Trace: true})
		if err != nil {
			t.Fatalf("traced %s: %v", q, err)
		}
		for path, got := range map[string]*Result{"plain": plain, "traced": traced} {
			if strings.Join(got.DNs(), "\n") != strings.Join(want.DNs(), "\n") {
				t.Fatalf("optimized %s plan diverges on %s:\n got %d entries\nwant %d entries",
					path, q, got.Count, want.Count)
			}
		}
	}
}
