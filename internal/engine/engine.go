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
// store, passing sorted intermediate lists between operators (Section
// 8.2): atomic queries evaluate through the store's indexes, every
// operator consumes sorted lists and emits a sorted list, and no
// intermediate re-sorting is ever needed. It does not pipeline: each
// operator writes its whole result to the session's scratch disk
// before its consumer reads it (streaming operators into each other is
// ROADMAP item 8). What it does cut is what an intermediate carries: an
// operand whose consumer reads only keys is evaluated to keys
// (operandNeeds).
type Engine struct {
	st       *store.Store
	cfg      Config
	resolver func(context.Context, *query.Atomic) (*plist.List, error)
	// sem holds Workers-1 grantable worker slots (nil when serial).
	// Acquisition is always non-blocking with an inline-evaluation
	// fallback, so nested operators can never deadlock on it.
	sem chan struct{}
	// arena is the per-query workspace of a Session: intermediates and
	// results are written to its scratch disk and store reads are
	// charged to its meter, leaving the store's disk read-only. Nil on a
	// base engine, whose Eval opens a fresh arena per call.
	arena *pager.Arena
	// allNeeds makes every operand need whole entries while keeping the
	// stack operators: the reference the package's tests hold the
	// derived needs to.
	allNeeds bool
}

// SetResolver installs an atomic-query resolver consulted instead of the
// local store. The distributed evaluator of Section 8.3 uses this to
// ship atomic sub-queries to the directory server owning their base DN
// and feed the returned sorted lists into the local operator pipeline.
// The context passed to EvalContext flows through unchanged, so remote
// resolution honors the caller's deadline and cancellation.
//
// It is a per-session hook: set it on the Session a query evaluates
// on. Sessions copy their base engine's resolver, so one set on a
// shared base engine (core.Directory.Engine's) would redirect every
// query of every caller of that snapshot.
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
// must be used by at most one query at a time; concurrent queries take
// one session each. The operator methods (EvalBool, Compute*, Naive*,
// EvalHier, EvalSimpleAgg) write their output to the session's scratch
// disk, so they are called on a session.
func (e *Engine) Session(a *pager.Arena) *Engine {
	s := *e
	s.arena = a
	return &s
}

// disk returns the session's scratch disk, the device operator
// intermediates and results are written to.
func (e *Engine) disk() *pager.Disk { return e.arena.Scratch() }

func (e *Engine) sortCfg() extsort.Config {
	return extsort.Config{MemBytes: e.cfg.SortMemBytes, Workers: e.cfg.Workers}
}

// Eval evaluates a query tree and returns the result list, sorted by
// reverse-DN key. Intermediate lists are freed as they are consumed. On
// a base engine it evaluates on a fresh arena over the store's disk; the
// result lives on that arena's scratch disk and is freed like any list.
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
// Section 9 tables report, measured live. The tracer must window the
// arena the query runs on, so a traced query evaluates on a Session.
// Without a tracer the instrumentation is a nil check per node.
func (e *Engine) EvalContext(ctx context.Context, q query.Query) (*plist.List, error) {
	if e.arena == nil {
		return e.Session(pager.NewArena(e.st.Disk())).EvalContext(ctx, q)
	}
	return e.eval(ctx, q, store.NeedAll)
}

// eval evaluates q for a consumer that reads need of each result
// record. The root of a query needs whole entries; each operator
// derives its operands' needs (operandNeeds) and passes them down.
func (e *Engine) eval(ctx context.Context, q query.Query, need store.Need) (*plist.List, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tr := obs.FromContext(ctx)
	sp := tr.Start(opName(q), opDetail(q))
	if sp != nil && e.cfg.Naive {
		sp.Tag("impl", "naive")
	}
	l, err := e.evalNode(ctx, sp, q, need)
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

// operandNeeds returns what operator q reads of each of its operands,
// in operand order, when q's own consumer reads need (DESIGN.md §16).
// Every operator's result is a subset of its first operand, so the
// first operand inherits need unless an aggregate selection reads its
// entries. A witness or blocker operand is read for its keys alone
// unless the selection folds one of its attributes, and an operand
// whose attribute an operator joins on is read whole. Naive evaluation
// reads every operand whole, which keeps it an independent oracle for
// the derived needs.
func (e *Engine) operandNeeds(q query.Query, need store.Need) (ns [3]store.Need) {
	if e.cfg.Naive || e.allNeeds {
		return ns
	}
	self := func(sel *query.AggSel) store.Need {
		if sel != nil {
			return store.NeedAll
		}
		return need
	}
	switch n := q.(type) {
	case *query.Bool:
		// & and - keep entries of the left operand only; an entry the
		// merge takes from the left needs none from the right.
		ns[0], ns[1] = need, store.NeedKeys
		if n.Op == query.OpOr {
			ns[1] = need
		}
	case *query.Hier:
		ns[0], ns[1], ns[2] = self(n.AggSel), e.witnessNeed(n.AggSel), store.NeedKeys
	case *query.EmbedRef:
		// The operand holding the references (dv's L2, vd's L1) is read
		// whole.
		if n.Op == query.OpDNValue {
			ns[0] = self(n.AggSel)
		} else {
			ns[1] = e.witnessNeed(n.AggSel)
		}
	}
	return ns
}

// WalkNeeds calls fn for every node of q, root first and operands in
// order (query.Walk's order), with the need the evaluator derives for
// it: what EXPLAIN reports beside each atomic's access path.
func (e *Engine) WalkNeeds(q query.Query, fn func(query.Query, store.Need)) {
	e.walkNeeds(q, store.NeedAll, fn)
}

func (e *Engine) walkNeeds(q query.Query, need store.Need, fn func(query.Query, store.Need)) {
	fn(q, need)
	ns := e.operandNeeds(q, need)
	for i, c := range q.Subqueries() {
		e.walkNeeds(c, ns[i], fn)
	}
}

// witnessNeed is the need of a witness operand under the selection: its
// keys alone when every fold over it is count($2). dv's pairs (see
// computeERAggDV) take the same need.
func (e *Engine) witnessNeed(sel *query.AggSel) store.Need {
	if e.cfg.Naive || e.allNeeds {
		return store.NeedAll
	}
	for _, a := range witnessSpecs(sel) {
		if a != "" {
			return store.NeedAll
		}
	}
	return store.NeedKeys
}

// evalNode dispatches one operator under an open span (sp may be nil)
// for a consumer that reads need of its records. Children recurse
// through eval, so their spans nest under sp and sp's I/O delta covers
// the whole subtree.
func (e *Engine) evalNode(ctx context.Context, sp *obs.Span, q query.Query, need store.Need) (*plist.List, error) {
	ns := e.operandNeeds(q, need)
	switch n := q.(type) {
	case *query.Atomic:
		if e.resolver != nil {
			// A resolver returns whole records, which satisfy any need.
			return e.resolver(ctx, n)
		}
		l, plan, err := e.st.EvalNeed(e.arena, n, need)
		if sp != nil {
			// Surface the plan that ran on the operator's span — access
			// path, need and catalog estimate — next to the exact
			// cardinality and page I/O.
			sp.Tag("path", plan.Path)
			sp.Tag("need", plan.Need.String())
			sp.Tag("est", strconv.FormatInt(plan.EstHits, 10))
			if n.Filter.Op == filter.OpKNN {
				sp.Tag("knn", plan.Path)
			}
		}
		return l, err

	case *query.LDAP:
		return e.st.EvalLDAPArena(e.arena, n)

	case *query.Bool:
		ls, err := e.evalChildren(ctx, ns, n.Q1, n.Q2)
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
		ls, err := e.evalChildren(ctx, ns, qs...)
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
		l1, err := e.eval(ctx, n.Q, ns[0])
		if err != nil {
			return nil, err
		}
		defer freeAll(l1)
		sp.SetIn(l1.Count())
		return e.EvalSimpleAgg(l1, n.AggSel)

	case *query.EmbedRef:
		ls, err := e.evalChildren(ctx, ns, n.Q1, n.Q2)
		if err != nil {
			return nil, err
		}
		l1, l2 := ls[0], ls[1]
		defer freeAll(l1, l2)
		sp.SetIn(l1.Count(), l2.Count())
		if e.cfg.Naive {
			return e.NaiveEmbedRef(n.Op, l1, l2, n.Attr, n.AggSel)
		}
		// The sort-merge technique of Section 7.2: Algorithm
		// ComputeERAggDV (Fig 3) and its symmetric vd counterpart.
		if n.Op == query.OpDNValue {
			return e.computeERAggDV(l1, l2, n.Attr, n.AggSel, e.witnessNeed(n.AggSel))
		}
		return e.ComputeERAggVD(l1, l2, n.Attr, n.AggSel)

	default:
		return nil, fmt.Errorf("engine: unknown query node %T", q)
	}
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
