package core

import (
	"fmt"
	"strings"

	"repro/internal/query"
)

// Explain describes how a query would be evaluated, without running it:
// its language level, the planner rewrites that would fire (when the
// directory was opened with Optimize), and the access path and catalog
// estimate for each atomic leaf.
type Explain struct {
	Language  query.Language
	Original  string
	Optimized string
	Rules     []string
	Atoms     []AtomPlan
}

// AtomPlan is the plan for one atomic leaf: the access path the store
// would take and the catalog's estimate. The actual cardinality and
// I/O are on the atomic's span when the query is evaluated traced.
type AtomPlan struct {
	Query     string
	Path      string // base-point | index | scan | knn-index | knn-scan
	EstHits   int64  // -1 if the catalog cannot estimate; k for knn
	ScanBytes int64
}

// String renders a compact multi-line report.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "language: %s\n", e.Language)
	if e.Optimized != e.Original {
		fmt.Fprintf(&b, "rewritten: %s\n", e.Optimized)
	}
	if len(e.Rules) > 0 {
		fmt.Fprintf(&b, "rules: %s\n", strings.Join(e.Rules, ", "))
	}
	for _, a := range e.Atoms {
		fmt.Fprintf(&b, "atom %-10s est=%-6d scope=%dB  %s\n", a.Path, a.EstHits, a.ScanBytes, a.Query)
	}
	return b.String()
}

// ExplainQuery plans a query string without evaluating it. Lock-free
// like Search: it plans against the snapshot loaded at call time, with
// the same planQuery Search runs.
func (d *Directory) ExplainQuery(text string) (*Explain, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	snap := d.snap.Load()
	if err := query.Validate(snap.st.Schema(), q); err != nil {
		return nil, err
	}
	plan := d.planQuery(snap, q)
	ex := &Explain{Language: q.Language(), Original: q.String(), Optimized: plan.Query.String(), Rules: plan.Rules}
	query.Walk(plan.Query, func(node query.Query) {
		a, ok := node.(*query.Atomic)
		if !ok {
			return
		}
		p := snap.st.ExplainAtomic(a)
		ex.Atoms = append(ex.Atoms, AtomPlan{
			Query:     a.String(),
			Path:      p.Path,
			EstHits:   p.EstHits,
			ScanBytes: p.ScanBytes,
		})
	})
	return ex, nil
}
