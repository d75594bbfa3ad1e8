package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/model"
)

// config is what one run needs beyond the workload itself.
type config struct {
	seed    int64
	seconds float64 // the measured window
	warm    float64 // load before the window, unmeasured
	server  string  // dirserve binary
	workDir string  // scratch: data directories, probe files
	outDir  string  // trace files
	golden  goldenFile
}

// result is one run of one workload, as the result file and the last
// stdout line carry it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]value   `json:"metrics"`
	Diag      map[string]float64 `json:"diagnostics,omitempty"`
}

// run is the state of one workload run against one child.
type run struct {
	s    *spec
	cfg  config
	in   *model.Instance
	pool []string
	want []answer // the oracle's answer per pool query

	attempted, failed int
	notes             []string // why ops failed, for the log
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 10 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// newRun generates the instance, builds the oracle and checks it
// against the goldens.
func newRun(s *spec, cfg config) (*run, error) {
	r := &run{s: s, cfg: cfg, in: s.instance(cfg.seed), pool: s.pool()}
	ref, err := core.Open(r.in, core.Options{})
	if err != nil {
		return nil, err
	}
	if r.want, err = evalPool(ref, r.pool); err != nil {
		return nil, err
	}
	if cfg.golden != nil {
		checked, bad := checkGolden(cfg.golden, s.name, cfg.seed, goldenRows(cfg.seed, r.pool, r.want))
		r.attempted += checked
		for i := 0; i < bad; i++ {
			r.fail("golden mismatch for %s seed %d", s.name, cfg.seed)
		}
	}
	return r, nil
}

func (r *run) dataDir(i int) string {
	return filepath.Join(r.cfg.workDir, fmt.Sprintf("%s-data-%d", r.s.name, i))
}

// coldStarts launches the server r.s.starts times, each from nothing (a
// durable server from an empty data directory), and keeps the last one
// running. setup_s is the median launch-to-listening time.
func (r *run) coldStarts(starts int) (c *child, dataDir string, setups []float64, err error) {
	for i := 0; i < starts; i++ {
		if c != nil {
			c.kill()
			_ = os.RemoveAll(dataDir)
		}
		dataDir = r.dataDir(i)
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, "", nil, err
		}
		if c, err = startChild(r.cfg.server, r.s.serverArgs(r.cfg.seed, dataDir)); err != nil {
			return nil, "", nil, err
		}
		setups = append(setups, c.setup.Seconds())
	}
	return c, dataDir, setups, nil
}

// traffic is what the load phase produced, already cut to the window.
type traffic struct {
	reads  []sample
	writes []sample
	// ops are all writes sent since the child started, warm-up included:
	// the reference is rebuilt from them.
	ops              []writeOp
	written          []*model.Entry // every entry those writes added
	acked            int64          // highest generation a write ack promised
	cpu              time.Duration
	rssMB, rssPeakMB float64 // median VmRSS over the window, VmHWM at its end
	retries          int64
	before           map[string]float64 // /metrics at window start
	after            map[string]float64 // and end
}

// load drives the child for warm + seconds: two closed-loop connections
// of reads, or on a durable spec one closed-loop writer beside one
// open-loop reader. Only the window after the warm-up is kept. A traced
// load scrapes /metrics at both edges of the window and leaves the child
// running; an untraced load of a durable spec ends with kill -9 the
// moment the last write is acknowledged.
func (r *run) load(c *child, traced bool) (*traffic, error) {
	clk := clock{origin: time.Now()}
	from := time.Duration(r.cfg.warm * float64(time.Second))
	to := from + time.Duration(r.cfg.seconds*float64(time.Second))
	clients := make([]*dirserver.Client, 2)
	for i := range clients {
		clients[i] = dirserver.NewClient(r.in.Schema(), dirserver.ClientConfig{RequestTimeout: 30 * time.Second})
		defer clients[i].Close()
	}

	t := &traffic{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	lastAck := make(chan struct{})
	if r.s.durable {
		wg.Add(2)
		go func() {
			defer wg.Done()
			ws := r.s.writeStream(r.cfg.seed, r.in)
			writes, ops := writeLoop(clk, clientCaller(clients[0], c.addr), ws, to)
			close(lastAck)
			mu.Lock()
			defer mu.Unlock()
			t.ops, t.written = ops, ws.written()
			for _, w := range writes {
				if !w.failed && w.gen > t.acked {
					t.acked = w.gen
				}
			}
			t.writes = window(writes, from, to)
		}()
		go func() {
			defer wg.Done()
			reads := openLoop(clk, clientCaller(clients[1], c.addr), r.pool, r.s.stream(r.cfg.seed, 1), readRate, 0, to)
			mu.Lock()
			defer mu.Unlock()
			t.reads = window(reads, from, to)
		}()
	} else {
		for conn, cl := range clients {
			wg.Add(1)
			go func(conn int, cl *dirserver.Client) {
				defer wg.Done()
				reads := closedLoop(clk, clientCaller(cl, c.addr), r.pool, r.s.stream(r.cfg.seed, conn), to)
				mu.Lock()
				defer mu.Unlock()
				t.reads = append(t.reads, window(reads, from, to)...)
			}(conn, cl)
		}
	}

	// Sample the child from outside at both edges of the window.
	clk.sleepUntil(from)
	cpu0, err := c.cpu()
	if err != nil {
		return nil, err
	}
	if traced {
		if t.before, err = c.scrape(); err != nil {
			return nil, err
		}
	}
	// The resident set is sampled through the window and its median
	// reported: the peak (VmHWM) swings by a fifth from run to run with
	// the timing of the child's garbage collections, the median does not.
	var rss []float64
	for at := from; at < to; at += 200 * time.Millisecond {
		clk.sleepUntil(at)
		v, err := c.rssMB("VmRSS")
		if err != nil {
			return nil, err
		}
		rss = append(rss, v)
	}
	clk.sleepUntil(to)
	cpu1, err := c.cpu()
	if err != nil {
		return nil, err
	}
	if t.rssPeakMB, err = c.rssMB("VmHWM"); err != nil {
		return nil, err
	}
	t.rssMB = median(rss)
	if r.s.durable && !traced {
		// The crash of the durability check. The writer is a closed loop,
		// so every write it sent has been acknowledged by now and nothing
		// else is in flight on its connection: whatever the server put off
		// past an acknowledgment does not get to happen.
		<-lastAck
		c.kill()
	}
	wg.Wait()
	if traced {
		if t.after, err = c.scrape(); err != nil {
			return nil, err
		}
	}
	t.cpu = cpu1 - cpu0
	for _, cl := range clients {
		t.retries += cl.Stats().Retries
	}
	return t, nil
}

// verify counts every windowed request and checks it: an error, a
// refusal or an answer that differs from the oracle's is a failed op.
func (r *run) verify(t *traffic) {
	for _, s := range t.reads {
		r.attempted++
		if s.failed {
			r.fail("read failed: %s", r.pool[s.q])
		} else if s.got != r.want[s.q] {
			r.fail("wrong answer for %s: got %+v want %+v", r.pool[s.q], s.got, r.want[s.q])
		}
	}
	for _, s := range t.writes {
		r.attempted++
		if s.failed {
			r.fail("write %d (%s) failed", s.q, t.ops[s.q].kind)
		}
	}
}

// reference rebuilds the directory the acknowledged writes should have
// produced, in process, from the generated instance.
func (r *run) reference(ops []writeOp) (*core.Directory, error) {
	in, err := applyOps(r.in, ops)
	if err != nil {
		return nil, err
	}
	return core.Open(in, core.Options{})
}

// checkState compares the server at addr with the reference: the
// 12-query sample, then every written entry — present if its last
// acknowledged op was an add, absent if a del.
func (r *run) checkState(addr string, ref *core.Directory, written []*model.Entry) error {
	cl := dirserver.NewClient(r.in.Schema(), dirserver.ClientConfig{})
	defer cl.Close()
	call := clientCaller(cl, addr)
	queries := sampleQueries(written)
	for _, e := range written {
		queries = append(queries, fmt.Sprintf("(%s ? base ? objectClass=*)", e.DN()))
	}
	for _, q := range queries {
		r.attempted++
		want, err := ref.Search(q)
		if err != nil {
			return fmt.Errorf("reference: %s: %w", q, err)
		}
		got, _, _, err := call("query", q)
		if err != nil {
			r.fail("state check %s: %v", q, err)
		} else if hashEntries(got) != hashEntries(want.Entries) {
			r.fail("state check %s: got %d entries, want %d", q, len(got), len(want.Entries))
		}
	}
	return nil
}

// recoverAndCheck is the second half of the durability check; load has
// already killed the child with -9 at the last acknowledgment. Restart on
// the same data directory and require the recovered generation to be at
// least the last acked one and the state to match a reference rebuilt
// from the acked writes. Returns restart → first correct reply. (kill -9
// leaves the OS page cache intact; torn writes are `make crash`'s job,
// with faultfs.)
func (r *run) recoverAndCheck(dataDir string, t *traffic) (recoverS float64, err error) {
	start := time.Now()
	back, err := startChild(r.cfg.server, r.s.serverArgs(r.cfg.seed, dataDir))
	if err != nil {
		return 0, err
	}
	defer back.kill()
	cl := dirserver.NewClient(r.in.Schema(), dirserver.ClientConfig{})
	first, _, _, err := clientCaller(cl, back.addr)("query", r.pool[0])
	cl.Close()
	recoverS = time.Since(start).Seconds()
	r.attempted += 2
	if err != nil || hashEntries(first) != r.want[0] {
		r.fail("first reply after recovery is wrong (err %v)", err)
	}
	if back.gen < t.acked {
		r.fail("recovered generation %d is older than the last acknowledged %d", back.gen, t.acked)
	}
	ref, err := r.reference(t.ops)
	if err != nil {
		return 0, err
	}
	return recoverS, r.checkState(back.addr, ref, t.written)
}

// timedRun measures the end-to-end metrics of one workload: cold starts,
// warm-up, the window, verification, and on a durable spec the crash.
func timedRun(s *spec, cfg config) (*result, error) {
	r, err := newRun(s, cfg)
	if err != nil {
		return nil, err
	}
	c, dataDir, setups, err := r.coldStarts(s.starts)
	if err != nil {
		return nil, err
	}
	defer func() {
		c.kill()
		_ = os.RemoveAll(dataDir)
	}()
	t, err := r.load(c, false) // a durable child does not survive it
	if err != nil {
		return nil, err
	}
	r.verify(t)

	m, diag := metricSet{}, map[string]float64{}
	primary := t.reads
	if s.durable {
		// The durable write is the request this workload is about; its
		// open-loop reads are diagnostics.
		primary = t.writes
		lat := latenciesMS(t.reads)
		diag["provision.read_p50_ms"] = median(lat)
		diag["provision.read_p99_ms"], _ = percentile(lat, 0.99)
		diag["provision.reads_per_s"] = float64(len(t.reads)) / cfg.seconds
		late := column(t.reads, time.Millisecond, func(s sample) time.Duration { return s.late })
		diag["provision.gen_late_p99_ms"], _ = percentile(late, 0.99)
		diag["provision.read_samples"] = float64(len(t.reads))
	}
	if len(primary) == 0 {
		return nil, fmt.Errorf("%s: no request completed inside the window", s.name)
	}
	lat := latenciesMS(primary)
	m["setup_s"] = median(setups)
	m["qps"] = float64(len(primary)) / cfg.seconds
	m["p50_ms"] = median(lat)
	// The child's CPU pays for every request of the window, so on
	// provision the divisor holds the open-loop reads beside the writes.
	m["cpu_us_per_op"] = us(t.cpu) / float64(len(t.reads)+len(t.writes))
	m["rss_mb"] = t.rssMB
	diag["samples"] = float64(len(primary))
	diag["rss_peak_mb"] = t.rssPeakMB
	// The tails are printed, not gated (README.md, Demotions); one the
	// sample does not support — fewer than ten samples beyond it — is left
	// out.
	for name, p := range map[string]float64{"p95_ms": 0.95, "p99_ms": 0.99} {
		if v, ok := percentile(lat, p); ok {
			diag[name] = v
		}
	}

	if s.durable {
		if diag["provision.recover_s"], err = r.recoverAndCheck(dataDir, t); err != nil {
			return nil, err
		}
	}
	return r.result(0, m, endToEnd, diag)
}

// tracedRun measures the per-layer metrics: the same warm-up and window
// against one child, for the reply-timing split and the child's own
// counters, then the in-process traced pass.
func tracedRun(s *spec, cfg config) (*result, error) {
	r, err := newRun(s, cfg)
	if err != nil {
		return nil, err
	}
	c, dataDir, _, err := r.coldStarts(1)
	if err != nil {
		return nil, err
	}
	defer func() {
		c.kill()
		_ = os.RemoveAll(dataDir)
	}()
	t, err := r.load(c, true)
	if err != nil {
		return nil, err
	}
	if s.durable {
		// The live half of the durability check: the running server against
		// a reference rebuilt from the writes it acknowledged. The timed
		// run's server is dead by now, killed at its last acknowledgment.
		ref, err := r.reference(t.ops)
		if err != nil {
			return nil, err
		}
		if err := r.checkState(c.addr, ref, t.written); err != nil {
			return nil, err
		}
	}
	c.kill()
	r.verify(t)
	if len(t.reads) == 0 {
		return nil, fmt.Errorf("%s: no read completed inside the window", s.name)
	}

	m := metricSet{}
	var replied []sample
	for _, rd := range t.reads {
		if !rd.failed {
			replied = append(replied, rd)
		}
	}
	// The server reports serve and queue in whole microseconds, so their
	// means are reported; wire is on this process's clock.
	m["dirserver.wire_us"] = median(column(replied, time.Microsecond, func(s sample) time.Duration { return s.wire }))
	m["dirserver.queue_us"] = mean(column(replied, time.Microsecond, func(s sample) time.Duration { return s.queue }))
	m["dirserver.serve_us"] = mean(column(replied, time.Microsecond, func(s sample) time.Duration { return s.serve }))
	m["dirserver.retries"] = float64(t.retries)
	primary := t.reads
	if s.durable {
		primary = t.writes
	}
	m["dirserver.p95_ms"], _ = percentile(latenciesMS(primary), 0.95)
	delta := func(name string) float64 { return t.after[name] - t.before[name] }
	m["pager.pages_per_op"] = ratio(delta("dirkit_server_query_io_pages_sum"), delta("dirkit_server_query_io_pages_count"))
	hits, misses := delta("dirkit_dir_cache_hits"), delta("dirkit_dir_cache_misses")
	m["qcache.hit_ratio"] = ratio(hits, hits+misses)
	m["qcache.evictions"] = delta("dirkit_dir_cache_evictions")
	m["core.swaps"] = delta("dirkit_dir_swaps")

	failed, err := runTracedPass(s, cfg.seed, cfg.workDir, cfg.outDir, m)
	if err != nil {
		return nil, err
	}
	r.attempted += s.tracedReads + s.tracedWrites
	for i := 0; i < failed; i++ {
		r.fail("traced pass: an in-process check failed")
	}
	return r.result(1, m, perLayer, nil)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (r *run) result(trace int, m metricSet, defs []metricDef, diag map[string]float64) (*result, error) {
	metrics, err := m.render(defs)
	if err != nil {
		return nil, err
	}
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "dirload: %s: %s\n", r.s.name, n)
	}
	return &result{
		Workload: r.s.name, Seed: r.cfg.seed, Trace: trace,
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: metrics, Diag: diag,
	}, nil
}
