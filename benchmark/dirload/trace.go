package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
)

// span is one timed call into a layer's public entry point, recorded by
// the harness around the call (the product code is not instrumented).
// Parent is the index of the enclosing span, -1 for an op's root; spans
// of one replayed request share Op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the pass ends. When off, begin
// and end do nothing, which is how the same replay code measures the
// recorder's own overhead.
type recorder struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
}

func (r *recorder) begin(name string, op int) int {
	if !r.on {
		return -1
	}
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: int64(time.Since(r.origin))})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if !r.on {
		return
	}
	r.spans[id].End = int64(time.Since(r.origin))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// checkSpans verifies the recorded tree: every child lies inside its
// parent and belongs to the same op, and per op the self times sum to
// the root's duration within 1 %.
func checkSpans(spans []span) error {
	self := selfTimes(spans)
	rootOf := make([]int, len(spans))
	sum := make(map[int]int64)
	for i, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			p := spans[s.Parent]
			if s.Parent >= i || s.Start < p.Start || s.End > p.End || s.Op != p.Op {
				return fmt.Errorf("span %d (%s) is not inside its parent %d (%s)", i, s.Name, s.Parent, p.Name)
			}
			rootOf[i] = rootOf[s.Parent]
		}
		sum[rootOf[i]] += self[i]
	}
	for root, total := range sum {
		dur := spans[root].End - spans[root].Start
		if diff := total - dur; diff > dur/100 || -diff > dur/100 {
			return fmt.Errorf("op %d: self times sum to %d ns, root span is %d ns", spans[root].Op, total, dur)
		}
	}
	return nil
}

// layerTotals sums span durations and self times by name.
func layerTotals(spans []span) (dur, self map[string]time.Duration) {
	dur, self = make(map[string]time.Duration), make(map[string]time.Duration)
	for i, st := range selfTimes(spans) {
		dur[spans[i].Name] += time.Duration(spans[i].End - spans[i].Start)
		self[spans[i].Name] += time.Duration(st)
	}
	return dur, self
}

// tracedPass replays the first ops of a workload's seeded stream in
// this process, one goroutine, against core.Open on the same generated
// instance and options as the server, with spans around each layer's
// public entry point; then, on provision, the writes the workload sends,
// each followed by a delta checkpoint, and Recover. Counts come out
// byte-identical for a given seed; times are this process's, not the
// server's.
type tracedPass struct {
	s    *spec
	seed int64
	rec  recorder
	dir  *core.Directory
	in   *model.Instance

	// Counts accumulated by readOp, reset per pass.
	atomicPages, evalPages, getPages int64
	records, listBytes, ldifBytes    int64
}

func runTracedPass(s *spec, seed int64, workDir, outDir string, m metricSet) (failed int, err error) {
	t := &tracedPass{s: s, seed: seed}

	start := time.Now()
	t.in = s.instance(seed)
	genTime := time.Since(start)
	entries := float64(t.in.Len())
	start = time.Now()
	if t.dir, err = core.Open(t.in, s.opts); err != nil {
		return 0, err
	}
	openTime := time.Since(start)
	m["workload.gen_us_per_entry"] = us(genTime) / entries
	m["core.open_us_per_entry"] = us(openTime) / entries
	m["store.pages_per_entry"] = float64(t.dir.Disk().NumPages()) / entries
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["core.heap_mb_after_open"] = float64(ms.HeapAlloc) / (1 << 20)

	pool := s.pool()
	ops := make([]int, s.tracedReads)
	st := s.stream(seed, 0)
	for i := range ops {
		ops[i] = st.next()
	}
	n := float64(len(ops))

	// Warm up on a prefix, so pass A is not the one that pays for cold
	// caches and a growing heap.
	if _, _, err := t.replay(pool, ops[:min(len(ops), 100, 1+len(ops)/3)], false); err != nil {
		return 0, err
	}
	// Pass A: the decomposed replay with the recorder off.
	plain, _, err := t.replay(pool, ops, false)
	if err != nil {
		return 0, err
	}
	// Pass B: the same with spans.
	traced, got, err := t.replay(pool, ops, true)
	if err != nil {
		return 0, err
	}
	m["trace.harness_overhead_ratio"] = float64(traced) / float64(plain)
	dur, self := layerTotals(t.rec.spans)
	m["query.parse_us"] = us(dur["query.Parse"]) / n
	m["query.validate_us"] = us(dur["query.Validate"]) / n
	m["query.canonical_us"] = us(dur["query.Canonical"]) / n
	m["store.atomic_us"] = us(dur["Store.EvalArena"]) / n
	m["store.atomic_pages"] = float64(t.atomicPages) / n
	m["store.get_us"] = us(dur["Directory.Get"]) / n
	m["store.get_pages"] = float64(t.getPages) / n
	m["engine.eval_us"] = us(dur["Engine.Eval"]) / n
	m["engine.eval_pages"] = float64(t.evalPages) / n
	m["engine.operator_us"] = us(self["Engine.Eval"]) / n
	m["plist.drain_us"] = us(dur["plist.Drain"]) / n
	m["plist.records_per_op"] = float64(t.records) / n
	m["plist.bytes_per_op"] = float64(t.listBytes) / n
	m["ldif.marshal_us"] = us(dur["ldif.MarshalEntry"]) / n
	m["ldif.unmarshal_us"] = us(dur["ldif.UnmarshalEntry"]) / n
	m["ldif.bytes_per_op"] = float64(t.ldifBytes) / n

	// Pass C: the product's own composition of the same layers.
	var before, after runtime.MemStats
	results := make([][]*model.Entry, len(ops))
	runtime.GC()
	runtime.ReadMemStats(&before)
	start = time.Now()
	for i, q := range ops {
		res, err := t.dir.Search(pool[q])
		if err != nil {
			return 0, fmt.Errorf("Search(%s): %w", pool[q], err)
		}
		results[i] = res.Entries
	}
	search := time.Since(start)
	runtime.ReadMemStats(&after)
	for i, entries := range results {
		if hashEntries(entries) != got[i] {
			failed++ // the decomposed replay and Search disagree
		}
	}
	m["core.search_us"] = us(search) / n
	m["core.overhead_us"] = m["core.search_us"] - m["query.parse_us"] - m["query.validate_us"] - m["engine.eval_us"] - m["plist.drain_us"]
	m["core.search_allocs"] = float64(after.Mallocs-before.Mallocs) / n
	m["core.search_alloc_bytes"] = float64(after.TotalAlloc-before.TotalAlloc) / n

	// Pass D: the same with the product's own tracer on.
	runtime.GC()
	start = time.Now()
	for _, q := range ops {
		if _, _, err := t.dir.SearchTraced(pool[q]); err != nil {
			return 0, fmt.Errorf("SearchTraced(%s): %w", pool[q], err)
		}
	}
	m["obs.trace_overhead_ratio"] = float64(time.Since(start)) / float64(search)

	// Only provision writes; elsewhere the write layers did nothing.
	if s.durable {
		wfailed, err := t.writeProbe(filepath.Join(workDir, "probe"), m)
		if err != nil {
			return 0, err
		}
		failed += wfailed
	} else {
		for _, name := range writeProbeMetrics {
			m[name] = 0
		}
	}

	if err := checkSpans(t.rec.spans); err != nil {
		return 0, err
	}
	return failed, t.writeFile(outDir)
}

// replay runs the decomposed read path over ops, with or without spans,
// and returns the wall time and each op's answer.
func (t *tracedPass) replay(pool []string, ops []int, spans bool) (time.Duration, []answer, error) {
	t.rec = recorder{on: spans, origin: time.Now()}
	t.atomicPages, t.evalPages, t.getPages = 0, 0, 0
	t.records, t.listBytes, t.ldifBytes = 0, 0, 0
	got := make([]answer, len(ops))
	runtime.GC() // every pass starts from a collected heap
	start := time.Now()
	for i, q := range ops {
		var err error
		if got[i], err = t.readOp(i, pool[q]); err != nil {
			return 0, nil, fmt.Errorf("replaying %s: %w", pool[q], err)
		}
	}
	return time.Since(start), got, nil
}

// readOp is the read path of Directory.Search and the server's reply
// encoding, taken apart at the layer boundaries.
func (t *tracedPass) readOp(op int, text string) (answer, error) {
	r := &t.rec
	eng := t.dir.Engine()
	st := eng.Store()
	root := r.begin("read", op)
	defer r.end(root)

	id := r.begin("query.Parse", op)
	q, err := query.Parse(text)
	r.end(id)
	if err != nil {
		return answer{}, err
	}
	id = r.begin("query.Validate", op)
	err = query.Validate(st.Schema(), q)
	r.end(id)
	if err != nil {
		return answer{}, err
	}
	id = r.begin("query.Canonical", op)
	_ = query.Canonical(q)
	r.end(id)

	arena := pager.NewArena(st.Disk())
	sess := eng.Session(arena)
	// The resolver hook puts a span around every leaf without touching
	// the engine: it makes the very call evalNode would have made.
	sess.SetResolver(func(_ context.Context, a *query.Atomic) (*plist.List, error) {
		id := r.begin("Store.EvalArena", op)
		before := arena.Stats()
		l, err := st.EvalArena(arena, a)
		t.atomicPages += arena.Stats().Sub(before).IO()
		r.end(id)
		return l, err
	})
	id = r.begin("Engine.Eval", op)
	l, err := sess.Eval(q)
	t.evalPages += arena.Stats().IO()
	r.end(id)
	if err != nil {
		return answer{}, err
	}
	t.listBytes += l.Size()

	id = r.begin("plist.Drain", op)
	recs, err := plist.Drain(l)
	r.end(id)
	if err != nil {
		return answer{}, err
	}
	if err := l.Free(); err != nil {
		return answer{}, err
	}
	t.records += int64(len(recs))

	id = r.begin("ldif.MarshalEntry", op)
	blocks := make([]string, len(recs))
	for i, rec := range recs {
		blocks[i] = ldif.MarshalEntry(rec.Entry)
		t.ldifBytes += int64(len(blocks[i]))
	}
	r.end(id)

	id = r.begin("ldif.UnmarshalEntry", op)
	entries := make([]*model.Entry, len(blocks))
	for i, b := range blocks {
		if entries[i], err = ldif.UnmarshalEntry(st.Schema(), b); err != nil {
			break
		}
	}
	r.end(id)
	if err != nil {
		return answer{}, err
	}

	if len(recs) > 0 {
		id = r.begin("Directory.Get", op)
		before := st.Disk().Stats()
		_, err = t.dir.Get(recs[0].Entry.DN().String())
		t.getPages += st.Disk().Stats().Sub(before).IO()
		r.end(id)
		if err != nil {
			return answer{}, err
		}
	}
	return hashEntries(entries), nil
}

// writeProbe checkpoints the directory (a full image), applies the
// write stream one entry at a time with a delta checkpoint after each —
// what a `-checkpoint-every 0 -delta-checkpoints` server does per
// acknowledged write — then recovers from the files it left. It measures
// writeProbeMetrics.
func (t *tracedPass) writeProbe(dataDir string, m metricSet) (failed int, err error) {
	if err := os.RemoveAll(dataDir); err != nil {
		return 0, err
	}
	fs, err := pager.DirFS(dataDir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dataDir)
	ds, err := durable.Open(fs, durable.Options{})
	if err != nil {
		return 0, err
	}
	reg := obs.NewRegistry()
	ds.RegisterMetrics(reg, "probe")
	commits := reg.Histogram("probe_commit_latency_us", "")

	if _, err := t.dir.Checkpoint(ds); err != nil {
		return 0, err
	}
	image := ds.Stats()
	var ldifText bytes.Buffer
	if err := ldif.Write(&ldifText, t.in); err != nil {
		return 0, err
	}
	m["store.image_bytes"] = float64(image.CommitBytes)
	m["durable.space_amp"] = float64(image.CommitBytes) / float64(ldifText.Len())
	commitUS, commitN := commits.Sum(), commits.Count()

	r := &t.rec
	firstOp := t.s.tracedReads
	ws := t.s.writeStream(t.seed, t.in)
	var dirty, reqBytes int64
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < t.s.tracedWrites; i++ {
		w := ws.next()
		op := store.EntryOp{Add: w.entry}
		if w.kind == "del" {
			op = store.EntryOp{Remove: w.entry.DN()}
		}
		reqBytes += int64(len(w.text))
		root := r.begin("write", firstOp+i)
		runtime.ReadMemStats(&before)
		id := r.begin("Directory.UpdateEntries", firstOp+i)
		err := t.dir.UpdateEntries(op)
		r.end(id)
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, fmt.Errorf("write probe %s %s: %w", w.kind, w.entry.DN(), err)
		}
		mallocs += after.Mallocs - before.Mallocs
		dirty += int64(t.dir.Disk().DirtyCount())
		id = r.begin("Directory.Checkpoint", firstOp+i)
		_, err = t.dir.Checkpoint(ds)
		r.end(id)
		r.end(root)
		if err != nil {
			return 0, err
		}
	}
	writes := float64(t.s.tracedWrites)
	final := ds.Stats()
	dur, _ := layerTotals(r.spans)
	m["core.update_us"] = us(dur["Directory.UpdateEntries"]) / writes
	m["core.update_allocs"] = float64(mallocs) / writes
	m["pager.dirty_pages_per_write"] = float64(dirty) / writes
	m["store.overlay_len"] = float64(t.dir.Engine().Store().OverlayLen())
	m["core.checkpoint_us"] = us(dur["Directory.Checkpoint"]) / writes
	m["durable.commit_us"] = float64(commits.Sum()-commitUS) / float64(commits.Count()-commitN)
	m["durable.commit_bytes_per_write"] = float64(final.CommitBytes-image.CommitBytes) / writes
	m["durable.fsynced_bytes_per_write"] = float64(final.BytesFsynced-image.BytesFsynced) / writes
	m["durable.write_amp"] = float64(final.BytesFsynced-image.BytesFsynced) / float64(reqBytes)

	// Recover from the files alone, as a restarted server would.
	fs2, err := pager.DirFS(dataDir)
	if err != nil {
		return 0, err
	}
	ds2, err := durable.Open(fs2, durable.Options{})
	if err != nil {
		return 0, err
	}
	op := firstOp + t.s.tracedWrites
	id := r.begin("core.Recover", op)
	back, info, err := core.Recover(ds2, t.s.opts)
	r.end(id)
	if err != nil {
		return 0, err
	}
	m["core.recover_us"] = us(time.Duration(r.spans[id].End - r.spans[id].Start))
	if info.Gen != t.dir.Generation() || back.Count() != t.dir.Count() {
		failed++
	}
	for _, q := range sampleQueries(ws.written()) {
		want, err1 := t.dir.Search(q)
		got, err2 := back.Search(q)
		if err1 != nil || err2 != nil || hashEntries(want.Entries) != hashEntries(got.Entries) {
			failed++
		}
	}
	return failed, nil
}

var writeProbeMetrics = []string{
	"store.image_bytes", "durable.space_amp",
	"core.update_us", "core.update_allocs", "pager.dirty_pages_per_write", "store.overlay_len",
	"core.checkpoint_us", "durable.commit_us", "durable.commit_bytes_per_write",
	"durable.fsynced_bytes_per_write", "durable.write_amp", "core.recover_us",
}

// traceFile is what benchmark/out/trace_<workload>.json holds.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracedPass) writeFile(outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(traceFile{Workload: t.s.name, Seed: t.seed, Spans: t.rec.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace_"+t.s.name+".json"), b, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
