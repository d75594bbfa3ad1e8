// Package engine evaluates L0–L3 query trees against a directory store
// using the external-memory operators of "Querying Network Directories":
// sort-merge set operations (Section 4.2), the hierarchy stack
// algorithms HSPC/HSAD/HSADc (Sections 5–6), and embedded-reference
// joins (Section 7), all over sorted reverse-DN-key lists so no
// intermediate re-sorting is ever needed (Section 8.2).
//
// With Config.Workers > 1 the engine evaluates independent plan
// subtrees — the operands of &, |, - and of the hierarchy and
// embedded-reference operators — concurrently on a bounded worker
// pool, joining at the existing sort-merge points (DESIGN.md §9).
// Results are byte-identical at any worker count.
package engine

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"repro/internal/extsort"
	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
)

// Config tunes the engine's constant-memory budget.
type Config struct {
	// StackWindow is the number of resident pages per algorithm stack
	// (default 4). Smaller windows spill more; Theorem 5.1's linearity
	// holds for any constant window.
	StackWindow int
	// AnnPoolPages is the buffer-pool capacity for annotation files
	// (default 16).
	AnnPoolPages int
	// SortMemBytes bounds the external sorter's run-formation memory
	// (default: extsort's own default).
	SortMemBytes int
	// Naive switches every operator to its quadratic "straightforward
	// way" baseline (Sections 5.3 and 7.2) — for the crossover
	// experiments.
	Naive bool
	// Workers bounds the number of goroutines evaluating independent
	// plan subtrees concurrently (and the external sorter's
	// parallelism). 0 or 1 evaluates serially. Results are identical
	// at any setting; see DESIGN.md §9.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.StackWindow < 2 {
		c.StackWindow = 4
	}
	if c.AnnPoolPages < 2 {
		c.AnnPoolPages = 16
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Engine evaluates L0..L3 query trees bottom-up against a directory
// store, pipelining sorted intermediate lists between operators
// (Section 8.2): atomic queries evaluate through the store's indexes,
// every operator consumes sorted lists and emits a sorted list, and no
// intermediate re-sorting is ever needed.
type Engine struct {
	st       *store.Store
	cfg      Config
	resolver func(context.Context, *query.Atomic) (*plist.List, error)
	// sem holds Workers-1 grantable worker slots (nil when serial).
	// Acquisition is always non-blocking with an inline-evaluation
	// fallback, so nested operators can never deadlock on it.
	sem chan struct{}
	// arena, when set, is the per-query workspace of a Session:
	// intermediates and results are written to its scratch disk and
	// store reads are charged to its meter, leaving the store's disk
	// read-only. Nil on the base engine (legacy shared-disk evaluation).
	arena *pager.Arena
}

// SetResolver installs an atomic-query resolver consulted instead of the
// local store. The distributed evaluator of Section 8.3 uses this to
// ship atomic sub-queries to the directory server owning their base DN
// and feed the returned sorted lists into the local operator pipeline.
// The context passed to EvalContext flows through unchanged, so remote
// resolution honors the caller's deadline and cancellation.
func (e *Engine) SetResolver(r func(context.Context, *query.Atomic) (*plist.List, error)) {
	e.resolver = r
}

// New creates an engine over a store.
func New(st *store.Store, cfg Config) *Engine {
	e := &Engine{st: st, cfg: cfg.withDefaults()}
	if e.cfg.Workers > 1 {
		e.sem = make(chan struct{}, e.cfg.Workers-1)
	}
	return e
}

// Store returns the engine's store.
func (e *Engine) Store() *store.Store { return e.st }

// Session returns a per-query view of the engine bound to the given
// arena: atomic queries evaluate through the store's arena path, every
// intermediate and result list lands on the arena's scratch disk, and
// the store's disk is only read (with reads charged to the arena's
// meter). Sessions share the base engine's store, configuration,
// resolver, and worker semaphore — the worker budget is global across
// concurrent sessions — so creating one is a struct copy. Each arena
// must be used by at most one evaluation at a time; concurrent queries
// take one session each.
func (e *Engine) Session(a *pager.Arena) *Engine {
	s := *e
	s.arena = a
	return &s
}

// disk returns the device operator intermediates are written to: the
// session's scratch disk, or (legacy shared-disk evaluation) the
// store's own disk.
func (e *Engine) disk() *pager.Disk {
	if e.arena != nil {
		return e.arena.Scratch()
	}
	return e.st.Disk()
}

func (e *Engine) sortCfg() extsort.Config {
	return extsort.Config{MemBytes: e.cfg.SortMemBytes, Workers: e.cfg.Workers}
}

// Eval evaluates a query tree and returns the result list, sorted by
// reverse-DN key. Intermediate lists are freed as they are consumed.
func (e *Engine) Eval(q query.Query) (*plist.List, error) {
	return e.EvalContext(context.Background(), q)
}

// EvalContext is Eval with deadline and cancellation propagation: the
// context is checked before each operator and handed to the atomic
// resolver, so a distributed evaluation stops promptly when the caller
// gives up (Section 8.3 queries must fail cleanly, never hang, when
// remote servers are unreachable).
//
// When the context carries an obs.Tracer, every operator is wrapped in
// a span recording its wall time, input/output cardinalities, and exact
// pager.Stats delta — the per-operator cost breakdown the paper's
// Section 9 tables report, measured live. Without a tracer the
// instrumentation is a nil check per node.
func (e *Engine) EvalContext(ctx context.Context, q query.Query) (*plist.List, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start(opName(q), opDetail(q))
	if sp != nil && e.cfg.Naive {
		sp.Tag("impl", "naive")
	}
	l, err := e.evalNode(ctx, sp, q)
	if err != nil {
		tr.Fail(sp, err)
		return nil, err
	}
	tr.End(sp, l.Count())
	return l, nil
}

// opName returns the span mnemonic for a query node — the paper's
// operator names: atomic, ldap, the L0 set operators, p/c/a/d/ac/dc,
// g, and vd/dv.
func opName(q query.Query) string {
	switch n := q.(type) {
	case *query.Atomic:
		return "atomic"
	case *query.LDAP:
		return "ldap"
	case *query.Bool:
		return n.Op.String()
	case *query.Hier:
		return n.Op.String()
	case *query.SimpleAgg:
		return "g"
	case *query.EmbedRef:
		return n.Op.String()
	default:
		return fmt.Sprintf("%T", q)
	}
}

// opDetail returns the span detail: leaves carry their query text
// (interior operators are identified by structure), embedded
// references carry the join attribute.
func opDetail(q query.Query) string {
	switch n := q.(type) {
	case *query.Atomic:
		return n.String()
	case *query.LDAP:
		return n.String()
	case *query.EmbedRef:
		return n.Attr
	default:
		return ""
	}
}

// evalNode dispatches one operator under an open span (sp may be nil).
// Children recurse through EvalContext, so their spans nest under sp
// and sp's I/O delta covers the whole subtree.
func (e *Engine) evalNode(ctx context.Context, sp *obs.Span, q query.Query) (*plist.List, error) {
	switch n := q.(type) {
	case *query.Atomic:
		if e.resolver != nil {
			return e.resolver(ctx, n)
		}
		if sp != nil {
			// Surface the plan on the operator's span — access path and
			// catalog estimate — so trace trees show which plan ran, and
			// what the catalog expected, next to the exact cardinality
			// and page I/O.
			plan := e.st.ExplainAtomic(n)
			sp.Tag("path", plan.Path)
			sp.Tag("est", strconv.FormatInt(plan.EstHits, 10))
			if n.Filter.Op == filter.OpKNN {
				sp.Tag("knn", plan.Path)
			}
		}
		if e.arena != nil {
			return e.st.EvalArena(e.arena, n)
		}
		return e.st.Eval(n)

	case *query.LDAP:
		if e.arena != nil {
			return e.st.EvalLDAPArena(e.arena, n)
		}
		return e.st.EvalLDAP(n)

	case *query.Bool:
		ls, err := e.evalChildren(ctx, n.Q1, n.Q2)
		if err != nil {
			return nil, err
		}
		l1, l2 := ls[0], ls[1]
		defer freeAll(l1, l2)
		sp.SetIn(l1.Count(), l2.Count())
		if e.cfg.Naive {
			return e.NaiveBool(n.Op, l1, l2)
		}
		return e.EvalBool(n.Op, l1, l2)

	case *query.Hier:
		qs := []query.Query{n.Q1, n.Q2}
		if n.Q3 != nil {
			qs = append(qs, n.Q3)
		}
		ls, err := e.evalChildren(ctx, qs...)
		if err != nil {
			return nil, err
		}
		l1, l2 := ls[0], ls[1]
		var l3 *plist.List
		if len(ls) == 3 {
			l3 = ls[2]
		}
		defer freeAll(l1, l2, l3)
		if l3 != nil {
			sp.SetIn(l1.Count(), l2.Count(), l3.Count())
		} else {
			sp.SetIn(l1.Count(), l2.Count())
		}
		if e.cfg.Naive {
			return e.NaiveHier(n.Op, l1, l2, l3, n.AggSel)
		}
		return e.EvalHier(n.Op, l1, l2, l3, n.AggSel)

	case *query.SimpleAgg:
		l1, err := e.EvalContext(ctx, n.Q)
		if err != nil {
			return nil, err
		}
		defer freeAll(l1)
		sp.SetIn(l1.Count())
		return e.EvalSimpleAgg(l1, n.AggSel)

	case *query.EmbedRef:
		ls, err := e.evalChildren(ctx, n.Q1, n.Q2)
		if err != nil {
			return nil, err
		}
		l1, l2 := ls[0], ls[1]
		defer freeAll(l1, l2)
		sp.SetIn(l1.Count(), l2.Count())
		if e.cfg.Naive {
			return e.NaiveEmbedRef(n.Op, l1, l2, n.Attr, n.AggSel)
		}
		return e.EvalEmbedRef(n.Op, l1, l2, n.Attr, n.AggSel)

	default:
		return nil, fmt.Errorf("engine: unknown query node %T", q)
	}
}

// EvalString parses, validates, and evaluates a query in the paper's
// surface syntax.
func (e *Engine) EvalString(text string) (*plist.List, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	if err := query.Validate(e.st.Schema(), q); err != nil {
		return nil, err
	}
	return e.Eval(q)
}

// Entries evaluates a query and drains the result into memory — for
// small results, tools, and tests.
func (e *Engine) Entries(q query.Query) ([]*model.Entry, error) {
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

func freeAll(ls ...*plist.List) {
	for _, l := range ls {
		if l != nil {
			_ = l.Free()
		}
	}
}

// clean strips merge labels and operator annotations so results compose.
// It works in place: rec is its reader's, about to be appended and then
// overwritten by the next.
func clean(rec *plist.Record) *plist.Record {
	rec.Label, rec.A, rec.B, rec.Aux = 0, 0, 0, rec.Aux[:0]
	return rec
}

// EvalBool computes the L0 boolean operators by the linear list-merge
// technique of Section 4.2 (after Jacobson et al. [21]): one synchronized
// scan of both sorted inputs, output written in sorted order.
func (e *Engine) EvalBool(op query.BoolOp, l1, l2 *plist.List) (*plist.List, error) {
	m := plist.NewMerge(l1.Reader(), l2.Reader())
	w := plist.NewWriter(e.disk())
	for {
		rec, err := m.Next()
		if err == io.EOF {
			return w.Close()
		}
		if err != nil {
			return nil, err
		}
		in1, in2 := rec.HasLabel(1), rec.HasLabel(2)
		keep := false
		switch op {
		case query.OpAnd:
			keep = in1 && in2
		case query.OpOr:
			keep = in1 || in2
		case query.OpDiff:
			keep = in1 && !in2
		}
		if keep {
			if err := w.Append(clean(rec)); err != nil {
				return nil, err
			}
		}
	}
}
