// Package core is the public face of the library: a Directory couples
// the network directory data model of "Querying Network Directories"
// (SIGMOD 1999) with its disk-resident store and the L0–L3 evaluation
// engine, behind a small build-then-query API.
//
// Usage:
//
//	dir, err := core.NewBuilder(model.DefaultSchema()).
//		MustAdd("dc=com", "dcObject").
//		MustAdd("dc=att, dc=com", "dcObject").
//		Build(core.Options{})
//	res, err := dir.Search(`(dc=com ? sub ? objectClass=dcObject)`)
//
// Search accepts the full surface syntax of the paper's languages —
// atomic queries, boolean operators, the six hierarchical selection
// operators, aggregate selection, and the embedded-reference operators —
// and returns entries in reverse-DN order along with the exact page I/O
// the evaluation performed.
//
// Every search has one body, Directory.SearchWith: Search and
// SearchTraced, the queries a dirserver serves and its Coordinator's
// federated ones all reach it. Its Request carries the parsed query
// (L0–L3 or the LDAP baseline), whether to trace, and an optional
// resolver for atomic sub-queries; the cache, trace and LDAP
// differences follow from those fields.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/plist"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/store"
)

// Options configures how a Directory is laid out and evaluated.
type Options struct {
	// PageSize is the simulated disk's page size (default 4096).
	PageSize int
	// NoAttrIndex disables the attribute/string indexes; every atomic
	// query then scans its scope range.
	NoAttrIndex bool
	// Optimize runs the algebraic planner on every query before
	// evaluation (scope narrowing, disjointness, the ac/dc collapse —
	// see internal/planner).
	Optimize bool
	// Engine tunes the evaluation engine (stack window etc.).
	Engine engine.Config
	// DeltaCheckpoints, when set, lets Checkpoint persist a page delta
	// against the previous durable generation instead of a full disk
	// image whenever the in-memory lineage (recorded by UpdateEntries)
	// links the two. Deltas shrink checkpoint bytes to the dirty page
	// set — O(log N) pages for an entry-level update — at the cost of a
	// base-chain replay on recovery. Full images are still written
	// whenever the chain's deltas would weigh as much as the full image
	// beneath them, the dirty set covers most of the device, or the
	// lineage is broken (any full-rebuild Update). Off by default:
	// checkpoints are then always self-contained full images.
	DeltaCheckpoints bool
	// CacheBytes, when positive, enables the query-result cache: up to
	// this many bytes of materialized results, keyed by (canonical
	// query, generation) with single-flight deduplication. A cache hit
	// performs zero page I/O; every Update invalidates all cached
	// results by bumping the generation embedded in the keys — stale
	// entries become unreachable instantly and age out of the LRU under
	// byte pressure (see internal/qcache and DESIGN.md §7). Entries of
	// cached results are shared between hits and must be treated as
	// read-only.
	CacheBytes int64
}

// Builder accumulates entries for a Directory.
type Builder struct {
	schema *model.Schema
	inst   *model.Instance
	err    error
}

// NewBuilder starts a directory over the given schema.
func NewBuilder(schema *model.Schema) *Builder {
	return &Builder{schema: schema, inst: model.NewInstance(schema)}
}

// Add inserts a pre-built entry.
func (b *Builder) Add(e *model.Entry) error {
	if b.err != nil {
		return b.err
	}
	return b.inst.Add(e)
}

// AddEntry creates and inserts an entry: the DN's RDN attributes are
// typed per the schema, classes are attached, and each (attr, textValue)
// pair is parsed per the attribute's type.
func (b *Builder) AddEntry(dn string, classes []string, avs ...[2]string) error {
	if b.err != nil {
		return b.err
	}
	parsed, err := model.ParseDN(dn)
	if err != nil {
		return err
	}
	e, err := model.NewEntryFromDN(b.schema, parsed)
	if err != nil {
		return err
	}
	for _, c := range classes {
		e.AddClass(c)
	}
	for _, av := range avs {
		t, ok := b.schema.AttrType(av[0])
		if !ok {
			return fmt.Errorf("core: unknown attribute %q", av[0])
		}
		v, err := model.ParseValue(t, av[1])
		if err != nil {
			return err
		}
		e.Add(av[0], v)
	}
	return b.inst.Add(e)
}

// MustAdd is AddEntry chaining for statically-known data; the first
// error is deferred to Build.
func (b *Builder) MustAdd(dn string, classes ...string) *Builder {
	if err := b.AddEntry(dn, classes); err != nil && b.err == nil {
		b.err = err
	}
	return b
}

// Build lays the staged instance out on a fresh simulated disk and
// returns the queryable Directory.
func (b *Builder) Build(opts Options) (*Directory, error) {
	if b.err != nil {
		return nil, b.err
	}
	return Open(b.inst, opts)
}

// Open builds a Directory from an existing instance: the entries are
// validated and laid out on a fresh simulated disk. The Directory keeps
// no reference to inst; the store is its only copy of the entries.
func Open(inst *model.Instance, opts Options) (*Directory, error) {
	st, err := buildStore(inst, opts)
	if err != nil {
		return nil, err
	}
	return newDirectory(st, opts, 1), nil
}

// newDirectory starts a Directory serving st as generation gen.
func newDirectory(st *store.Store, opts Options, gen int64) *Directory {
	d := &Directory{opts: opts}
	if opts.CacheBytes > 0 {
		d.cache = qcache.New(opts.CacheBytes)
	}
	d.snap.Store(newSnapshot(st, opts, gen))
	return d
}

// Directory is a queryable network directory, safe for concurrent use
// with lock-free reads: the whole read state — store, engine,
// strictness, generation — lives in one immutable snapshot behind an
// atomic pointer, and the store is the only copy of the entries.
// SearchWith (behind every Search variant), Get and ExplainQuery load
// the pointer once, and a search evaluates on a per-query scratch arena
// (pager.Arena), touching the shared store disk only with reads, so any
// number of queries run concurrently without a directory-level lock.
// The two writers build the next store beside the live one —
// UpdateEntries on a copy-on-write fork of its disk, Update by
// rebuilding on a fresh disk — and atomically swap the snapshot in:
// readers mid-flight finish against the snapshot they loaded, new
// readers see the new generation, and a failure at any point (invalid
// entry, mutation error, store build error) leaves the live directory
// bit-for-bit untouched. See DESIGN.md §10.
type Directory struct {
	// snap is the current immutable read state. Readers Load it exactly
	// once per operation and never look back; writers Store a fully
	// built replacement.
	snap atomic.Pointer[snapshot]
	// writeMu serializes writers (Update, UpdateEntries). Writers exclude
	// only each other: the next store is built on a fork or a fresh
	// disk, so readers proceed throughout.
	writeMu sync.Mutex
	opts    Options
	cache   *qcache.Cache // nil unless Options.CacheBytes > 0

	swaps     atomic.Int64  // completed store swaps (successful Updates)
	rebuildNS atomic.Int64  // wall time of the last successful write, lock to publish
	readers   readerTracker // in-flight evaluations per generation (lag gauge)

	// lineage links each generation produced by the UpdateEntries fast
	// path to its parent, with the page set the fork dirtied — exactly
	// what a delta checkpoint against any ancestor must carry (the union
	// along the chain). Only maintained under Options.DeltaCheckpoints;
	// a full-rebuild Update simply records nothing, which breaks the
	// chain and forces the next checkpoint back to a full image.
	lineageMu sync.Mutex
	lineage   map[int64]lineageRec
}

// lineageRec is one hop of the fast-path update lineage.
type lineageRec struct {
	parent int64
	dirty  []pager.PageID
}

// maxLineage bounds the lineage map between checkpoints. Past it the
// history is dropped wholesale: the next checkpoint degrades to a full
// image, which is the correct failure mode for a checkpointer that has
// fallen that far behind the write stream.
const maxLineage = 4096

// snapshot bundles the immutable per-generation read state. Once
// published via Directory.snap it is never mutated: a writer builds a
// whole new snapshot (new store on a forked or fresh disk, new engine)
// and swaps the pointer.
type snapshot struct {
	st     *store.Store
	eng    *engine.Engine
	strict bool // parent-closed forest, st.Orphans() == 0 (enables the ac/dc collapse)
	// gen is the store generation: 1 for a freshly opened directory,
	// +1 per successful Update. Equal generations imply identical store
	// contents, which is what makes it a one-integer cache-invalidation
	// token — locally and echoed over the wire (internal/dirserver).
	gen int64
}

// newSnapshot wraps a finished store as generation gen's read state and
// seals its disk: every publish path (Open, OpenSnapshot, Recover,
// Update, UpdateEntries) comes through here, and from now on the store
// is only read — queries write to their arenas, the next writer to a
// fork.
func newSnapshot(st *store.Store, opts Options, gen int64) *snapshot {
	st.Disk().Seal()
	return &snapshot{st: st, eng: engine.New(st, opts.Engine), strict: st.Orphans() == 0, gen: gen}
}

// buildStore lays inst out on a fresh disk. The store is read-optimized
// (contiguous master list, packed indexes), so a rebuild trades a full
// device write for scan-speed reads — the paper's directories are
// read-mostly, populated by administrators and queried by the network.
func buildStore(inst *model.Instance, opts Options) (*store.Store, error) {
	return store.Build(pager.NewDisk(opts.PageSize), inst, store.Options{AttrIndex: !opts.NoAttrIndex})
}

// Update hands fn an in-memory instance of the current entries, builds
// the mutated instance's disk layout off-line, and atomically swaps it
// in. The instance is materialized from the live store for this call
// (O(N), as the rebuild is) and is fn's alone.
//
// The call is failure-atomic: an error (from fn, or from the store
// build, which re-validates every entry) leaves the live directory
// bit-for-bit untouched — same generation, same query answers, cached
// results intact. Queries run lock-free throughout; they see either
// the old snapshot or the new one, never a mix.
func (d *Directory) Update(fn func(in *model.Instance) error) error {
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	return d.rebuild(d.snap.Load(), time.Now(), fn)
}

// rebuild is the full-rebuild write (called under writeMu, taken at
// start): cur's entries as a private instance, fn applied, a new store
// on a fresh disk, published as the next generation.
func (d *Directory) rebuild(cur *snapshot, start time.Time, fn func(in *model.Instance) error) error {
	next, err := cur.st.Instance()
	if err != nil {
		return err
	}
	if err := fn(next); err != nil {
		return err // instance discarded; nothing published
	}
	st, err := buildStore(next, d.opts)
	if err != nil {
		return err // build failed off-line; the old snapshot still serves
	}
	d.publish(newSnapshot(st, d.opts, cur.gen+1), start)
	return nil
}

// publish swaps snap in as the current read state (called under
// writeMu) and records the swap and how long the write took since start.
func (d *Directory) publish(snap *snapshot, start time.Time) {
	d.rebuildNS.Store(int64(time.Since(start)))
	d.snap.Store(snap)
	d.swaps.Add(1)
}

// UpdateEntries applies a batch of entry-level adds and removes through
// the store's copy-on-write overlay: the new generation's disk is a
// fork of the current one sharing every untouched page, so the write
// costs O(log N) dirty pages and no pass over the other entries.
// store.ApplyOps checks each op in order against the forked trees: an
// add must be a valid entry (model.ErrInvalid) of an absent DN
// (model.ErrDuplicateDN), a remove must name a present one
// (store.ErrNoEntry). The batch is failure-atomic and all-or-nothing,
// exactly like Update: on any error the fork is dropped and the live
// directory is untouched.
//
// Ops the overlay cannot represent (vector-indexed entries, records
// larger than a B-tree item, a third of a page) transparently fall back
// to the full rebuild Update performs; the result is identical, only
// the write cost differs.
func (d *Directory) UpdateEntries(ops ...store.EntryOp) error {
	if len(ops) == 0 {
		return nil
	}
	d.writeMu.Lock()
	defer d.writeMu.Unlock()
	start := time.Now()
	cur := d.snap.Load()
	fork := cur.st.Disk().Fork()
	st, err := cur.st.ApplyOps(fork, ops)
	if errors.Is(err, store.ErrNeedsRebuild) {
		return d.rebuild(cur, start, func(in *model.Instance) error {
			for _, op := range ops {
				if op.Add != nil {
					if err := in.Add(op.Add); err != nil {
						return err
					}
				} else if !in.Remove(op.Remove) {
					return fmt.Errorf("core: %w: %s", store.ErrNoEntry, op.Remove)
				}
			}
			return nil
		})
	}
	if err != nil {
		return err // fork discarded; nothing published
	}
	snap := newSnapshot(st, d.opts, cur.gen+1)
	if d.opts.DeltaCheckpoints {
		d.recordLineage(snap.gen, cur.gen, fork.Dirty())
	}
	d.publish(snap, start)
	return nil
}

// recordLineage notes that gen was produced from parent by dirtying
// exactly the given pages (called under writeMu).
func (d *Directory) recordLineage(gen, parent int64, dirty []pager.PageID) {
	d.lineageMu.Lock()
	defer d.lineageMu.Unlock()
	if len(d.lineage) >= maxLineage {
		d.lineage = nil // drop history; the next checkpoint ships a full image
	}
	if d.lineage == nil {
		d.lineage = make(map[int64]lineageRec)
	}
	d.lineage[gen] = lineageRec{parent: parent, dirty: dirty}
}

// pruneLineage drops lineage at or below the newest durable generation:
// future delta chains only ever walk back to it, never past it.
func (d *Directory) pruneLineage(persisted int64) {
	d.lineageMu.Lock()
	defer d.lineageMu.Unlock()
	for g := range d.lineage {
		if g <= persisted {
			delete(d.lineage, g)
		}
	}
}

// Result is a materialized query answer. Per Section 4.1, an answer is
// itself a directory instance: a subset of the input's entries, which —
// like any instance — can exhibit the full heterogeneity of the model.
type Result struct {
	Entries []*model.Entry
	// IO is the page I/O the evaluation performed: reads of the shared
	// store (list pages, and B+tree leaves — interior pages count as
	// resident, DESIGN.md §8) plus all scratch-arena traffic
	// (intermediate and result lists, stacks, sort runs). It depends on
	// the query and the snapshot only.
	IO pager.Stats
	// Gen is the store generation the query evaluated against — the
	// snapshot loaded at the start of the search, even if an Update
	// swapped in a newer store mid-evaluation.
	Gen int64
}

// DNs returns the distinguished names of the result entries, in order.
func (r *Result) DNs() []string {
	out := make([]string, len(r.Entries))
	for i, e := range r.Entries {
		out[i] = e.DN().String()
	}
	return out
}

// AsInstance materializes the answer as a directory instance of the
// given schema — the closure property of Section 10: "answers to
// queries can exhibit the same kinds of heterogeneity as directory
// instances", and a materialized answer can itself be opened and
// queried. Note the result is in general a forest even when the queried
// directory was a tree (the reason the formal model is a forest,
// footnote 3).
func (r *Result) AsInstance(schema *model.Schema) (*model.Instance, error) {
	in := model.NewInstance(schema)
	for _, e := range r.Entries {
		if err := in.Add(e.Clone()); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// Schema returns the directory's schema.
func (d *Directory) Schema() *model.Schema { return d.snap.Load().st.Schema() }

// Count returns the number of entries.
func (d *Directory) Count() int { return d.snap.Load().st.Count() }

// Engine exposes the current snapshot's evaluation engine (for
// benchmarks, tools and the distributed Coordinator, which need
// streaming results or a per-query resolver). It is shared by every
// caller of the snapshot: evaluate on Session with an arena over its
// store's disk, and set per-query hooks such as a resolver on that
// session, never on the shared engine. Its Eval opens an arena of its
// own. It keeps describing the snapshot current at call time even after
// later Updates swap in new stores.
func (d *Directory) Engine() *engine.Engine { return d.snap.Load().eng }

// Disk exposes the current snapshot's simulated device for I/O
// accounting and as the base of query arenas. Like Engine, it is pinned
// to the snapshot current at call time. It is sealed: it is read, never
// written (pager.ErrSealed).
func (d *Directory) Disk() *pager.Disk { return d.snap.Load().st.Disk() }

// Get fetches one entry by DN. Lock-free: the lookup reads the loaded
// snapshot's store, which no writer ever mutates.
func (d *Directory) Get(dn string) (*model.Entry, error) {
	parsed, err := model.ParseDN(dn)
	if err != nil {
		return nil, err
	}
	return d.snap.Load().st.Get(parsed)
}

// Generation returns the store generation: it starts at 1 and
// increments on every successful Update (and is fresh after a snapshot
// restore). Equal generations imply identical store contents, which is
// what makes it a one-integer cache-invalidation token — locally and
// echoed over the wire to remote coordinators (internal/dirserver).
func (d *Directory) Generation() int64 { return d.snap.Load().gen }

// CacheStats snapshots the query-result cache's counters (zero when
// caching is disabled).
func (d *Directory) CacheStats() qcache.Stats {
	if d.cache == nil {
		return qcache.Stats{}
	}
	return d.cache.Stats()
}

// Search parses, validates and evaluates a query in the paper's surface
// syntax, materializing the result: SearchWith on a plain Request.
func (d *Directory) Search(text string) (*Result, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	res, _, err := d.SearchWith(context.Background(), Request{Query: q})
	return res, err
}

// SearchTraced is Search with per-operator tracing: SearchWith on a
// Request with Trace set, returning the span tree beside the result.
func (d *Directory) SearchTraced(text string) (*Result, *obs.Span, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	return d.SearchWith(context.Background(), Request{Query: q, Trace: true})
}

// Resolver answers one atomic sub-query of a search in place of the
// directory's store. st is the store of the snapshot the search loaded,
// and the returned list must live on arena, the search's own.
// dirserver.Coordinator's resolver ships the atomics other servers own
// to them (Section 8.3).
type Resolver func(ctx context.Context, st *store.Store, arena *pager.Arena, q *query.Atomic) (*plist.List, error)

// Request is one search. How it runs follows from its fields, not from
// a choice of method.
type Request struct {
	// Query is the parsed query, from query.Parse or query.ParseLDAP. An
	// LDAP baseline query (*query.LDAP) skips L0 validation and the
	// planner, and its cache slots are kept apart from L0–L3 queries'
	// even when the printed forms coincide.
	Query query.Query
	// Trace records the evaluation's span tree: for every plan operator,
	// its wall time, input/output cardinalities and pager.Stats delta
	// (dirq -explain renders it; DESIGN.md §8), exact while other
	// queries run because the tracer windows this query's own arena. A
	// traced search bypasses the result cache, since a hit has no
	// operator tree, and its Result.IO covers evaluation only, excluding
	// the final result drain, so that it equals the root span's IO and
	// the per-operator self deltas sum to it (TestTraceIOConservation).
	Trace bool
	// Resolve, when set, answers every atomic sub-query. Such a search
	// runs neither the planner nor the result cache: its answer depends
	// on what the resolver reaches, which neither the cache key nor the
	// planner's StrictForest describes.
	Resolve Resolver
}

// SearchWith is the one search body behind every local, served and
// federated query. It loads the current snapshot once, so the cache
// key's generation, the evaluation and the Result's Gen all describe
// the same store even if an Update swaps mid-flight, and it evaluates
// on a fresh per-query arena.
//
// With the result cache on (Options.CacheBytes), an untraced search
// without a resolver consults it first: semantically identical queries
// (same canonical form, query.Canonical) at the same generation share
// one cached answer, concurrent identical misses evaluate once, and a
// hit performs zero page I/O. Every evaluation except a cache fill runs
// under ctx, whose deadline and cancellation are checked before each
// operator. A fill is shared by every waiter on its key, so it runs
// detached (context.WithoutCancel): one caller's deadline never fails
// another caller's search.
//
// A traced search returns its span tree even on failure — partial, with
// the failing span carrying the error — which keeps distributed traces
// well-formed when one hop dies mid-query.
func (d *Directory) SearchWith(ctx context.Context, req Request) (*Result, *obs.Span, error) {
	snap := d.snap.Load()
	if d.cache == nil || req.Trace || req.Resolve != nil {
		res, _, root, err := d.evaluate(ctx, snap, req)
		return res, root, err
	}
	prefix := ""
	if _, ldap := req.Query.(*query.LDAP); ldap {
		prefix = "ldap|"
	}
	key := fmt.Sprintf("%sg%d|%s", prefix, snap.gen, query.Canonical(req.Query))
	v, hit, err := d.cache.Do(key, func() (any, int64, error) {
		res, size, _, err := d.evaluate(context.WithoutCancel(ctx), snap, req)
		if err != nil {
			return nil, 0, err
		}
		return res, size, nil
	})
	if err != nil {
		return nil, nil, err
	}
	res := v.(*Result)
	if hit {
		// Fresh header, shared (read-only) entries: a hit re-executes
		// no I/O, and the Result must say so.
		return &Result{Entries: res.Entries, Gen: res.Gen}, nil, nil
	}
	return res, nil, nil
}

// evaluate is the one evaluation body: it validates and plans req's
// query, evaluates it against one loaded snapshot on a fresh per-query
// arena, and returns the materialized result plus its size in
// list-stream bytes (the result cache's cost measure). No directory
// lock is taken: the snapshot's store disk is only read, and all writes
// land on the arena's private scratch disk, so any number of
// evaluations run concurrently with exact per-query I/O accounting.
// The resolver, if any, is bound to this query's session alone.
func (d *Directory) evaluate(ctx context.Context, snap *snapshot, req Request) (res *Result, size int64, root *obs.Span, err error) {
	q := req.Query
	if _, ldap := q.(*query.LDAP); !ldap {
		if err := query.Validate(snap.st.Schema(), q); err != nil {
			return nil, 0, nil, err
		}
		if req.Resolve == nil {
			q = d.planQuery(snap, q).Query
		}
	}
	d.readers.enter(snap.gen)
	defer d.readers.exit(snap.gen)
	arena := pager.NewArena(snap.st.Disk())
	sess := snap.eng.Session(arena)
	if resolve := req.Resolve; resolve != nil {
		sess.SetResolver(func(ctx context.Context, a *query.Atomic) (*plist.List, error) {
			return resolve(ctx, snap.st, arena, a)
		})
	}
	if req.Trace {
		tr := obs.NewTracer(arena)
		ctx = obs.WithTracer(ctx, tr)
		defer func() { root = tr.Root() }()
	}
	l, err := sess.EvalContext(ctx, q)
	if err != nil {
		return nil, 0, nil, err
	}
	evalIO := arena.Stats()
	entries, err := plist.DrainEntries(l)
	if err != nil {
		return nil, 0, nil, err
	}
	res = &Result{Entries: entries, IO: arena.Stats(), Gen: snap.gen}
	if req.Trace {
		res.IO = evalIO
	}
	return res, l.Size(), nil, l.Free()
}

// planQuery runs the algebraic planner over a validated query when the
// directory was opened with Optimize; otherwise the query passes
// through untouched with no rules fired. Search and ExplainQuery both
// call it, so what EXPLAIN prints is what Search runs.
func (d *Directory) planQuery(snap *snapshot, q query.Query) planner.Result {
	if d.opts.Optimize {
		return planner.Optimize(q, planner.Info{StrictForest: snap.strict})
	}
	return planner.Result{Query: q}
}

// readerTracker counts in-flight evaluations per generation, feeding
// the reader-generation-lag gauge. The mutex guards two map operations
// per query — nanoseconds, not the evaluation itself, so the read path
// stays effectively lock-free (and entirely uncontended with writers,
// who never touch the tracker).
type readerTracker struct {
	mu     sync.Mutex
	active map[int64]int
}

func (t *readerTracker) enter(gen int64) {
	t.mu.Lock()
	if t.active == nil {
		t.active = make(map[int64]int)
	}
	t.active[gen]++
	t.mu.Unlock()
}

func (t *readerTracker) exit(gen int64) {
	t.mu.Lock()
	if n := t.active[gen]; n <= 1 {
		delete(t.active, gen) // prune at zero: at most a few generations live
	} else {
		t.active[gen] = n - 1
	}
	t.mu.Unlock()
}

// oldest returns the smallest generation with an in-flight reader.
func (t *readerTracker) oldest() (int64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var min int64
	found := false
	for g := range t.active {
		if !found || g < min {
			min, found = g, true
		}
	}
	return min, found
}

// RegisterMetrics exposes the directory's state on reg as pull-based
// gauges: entry count, store generation, live pages, swap count,
// last-write duration, reader generation lag, and — when the result
// cache is enabled — its hit/miss/byte counters. Metric names are
// listed in DESIGN.md §8.
func (d *Directory) RegisterMetrics(reg *obs.Registry) {
	reg.GaugeFunc("dirkit_dir_entries", "entries in the directory", func() int64 { return int64(d.Count()) })
	reg.GaugeFunc("dirkit_dir_generation", "store generation (bumps on every Update)", d.Generation)
	reg.GaugeFunc("dirkit_dir_pages", "live pages on the simulated disk", func() int64 { return int64(d.Disk().NumPages()) })
	for _, owner := range []struct {
		name, what string
		n          func(store.PageCounts) int
	}{
		{"master", "the master list", func(pc store.PageCounts) int { return pc.Master }},
		{"dn", "the DN B+tree", func(pc store.PageCounts) int { return pc.DN }},
		{"attr", "the attribute B+tree", func(pc store.PageCounts) int { return pc.Attr }},
		{"overlay", "the entry overlay B+tree", func(pc store.PageCounts) int { return pc.Overlay }},
	} {
		reg.GaugeFunc("dirkit_dir_pages_"+owner.name, "pages of "+owner.what+" (-1: its walk failed)", func() int64 {
			pc, err := d.snap.Load().st.PageCounts()
			if err != nil {
				return -1
			}
			return int64(owner.n(pc))
		})
	}
	reg.GaugeFunc("dirkit_dir_swaps", "completed copy-on-write store swaps (successful Updates)", d.swaps.Load)
	reg.GaugeFunc("dirkit_dir_rebuild_ms", "wall time of the last successful write (validate + apply/rebuild + publish) (ms)",
		func() int64 { return d.rebuildNS.Load() / int64(time.Millisecond) })
	reg.GaugeFunc("dirkit_dir_reader_lag", "generations between the current store and the oldest in-flight reader",
		func() int64 {
			if oldest, ok := d.readers.oldest(); ok {
				return d.Generation() - oldest
			}
			return 0
		})
	if d.cache != nil {
		d.cache.RegisterMetrics(reg, "dirkit_dir_cache")
	}
}
