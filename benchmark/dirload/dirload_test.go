package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/model"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{1000, 0.95, 950, true},
		{1000, 0.99, 990, true}, // exactly ten beyond
		{999, 0.99, 989, false}, // nine beyond rank 990: fall back to rank n-10
		{100, 0.95, 90, false},  // five beyond: fall back to rank 90
		{200, 0.95, 190, true},  // ten beyond
		{15, 0.95, 8, false},    // never below the median
		{15, 0.5, 8, true},      // the median is always supported
		{1, 0.99, 1, false},     // one sample is its own median
		{10000, 0.999, 9990, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.supported {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.supported)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("an empty sample supports no percentile")
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	s := specByName("lookup").scaled()
	pool := s.pool()
	calls := 0
	// The first request stalls for 60 ms; the rest are instant. At 100
	// req/s requests 1..5 were due during the stall.
	stall := func(kind, text string) ([]*model.Entry, int64, *dirserver.RemoteTrace, error) {
		if calls++; calls == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		return nil, 1, nil, nil
	}
	clk := clock{origin: time.Now()}
	out := openLoop(clk, stall, pool, s.stream(1, 0), 100, 0, 100*time.Millisecond)
	if len(out) != 10 {
		t.Fatalf("10 requests were due in 100 ms at 100 req/s, got %d samples", len(out))
	}
	for i, smp := range out {
		if due := time.Duration(i) * 10 * time.Millisecond; smp.start != due {
			t.Errorf("request %d is timed from %v, want its due time %v", i, smp.start, due)
		}
	}
	// Request 1 was due at 10 ms but could not leave before 60 ms: its
	// latency counts the 50 ms it waited, and the generator reports it.
	if out[1].latency() < 45*time.Millisecond {
		t.Errorf("request 1 latency %v does not count the stall it queued behind", out[1].latency())
	}
	if out[1].late < 45*time.Millisecond || out[0].late > 20*time.Millisecond {
		t.Errorf("generator lateness = %v, %v; want about 0 and 50ms", out[0].late, out[1].late)
	}
	// Once the backlog has drained the generator is on schedule again.
	if out[9].late > 20*time.Millisecond {
		t.Errorf("request 9 left %v late after the backlog drained", out[9].late)
	}
}

func TestStreamsAreDeterministicPerSeed(t *testing.T) {
	for _, full := range specs {
		s := full.scaled()
		draw := func(seed int64, conn int) []int {
			st := s.stream(seed, conn)
			out := make([]int, 300)
			for i := range out {
				out[i] = st.next()
				if out[i] < 0 || out[i] >= len(s.pool()) {
					t.Fatalf("%s: stream drew %d outside the pool of %d", s.name, out[i], len(s.pool()))
				}
			}
			return out
		}
		if !reflect.DeepEqual(draw(1, 0), draw(1, 0)) {
			t.Errorf("%s: same seed and connection, different stream", s.name)
		}
		if reflect.DeepEqual(draw(1, 0), draw(2, 0)) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", s.name)
		}
		if reflect.DeepEqual(draw(1, 0), draw(1, 1)) {
			t.Errorf("%s: both connections send the same stream", s.name)
		}
		if !s.durable {
			continue // only provision writes
		}

		in := s.instance(1)
		writes := func(seed int64) []string {
			ws := s.writeStream(seed, in)
			var out []string
			for i := 0; i < 30; i++ {
				w := ws.next()
				out = append(out, w.kind+" "+w.text)
			}
			return out
		}
		w1 := writes(1)
		if !reflect.DeepEqual(w1, writes(1)) {
			t.Errorf("%s: same seed, different write stream", s.name)
		}
		for i, w := range w1 {
			if want := []string{"add", "add", "del"}[i%3]; !strings.HasPrefix(w, want+" ") {
				t.Errorf("%s: write %d is %q, want a %s", s.name, i, w, want)
			}
		}
		// The stream is valid on its instance: every op applies.
		ws := s.writeStream(1, in)
		var ops []writeOp
		for i := 0; i < 30; i++ {
			ops = append(ops, ws.next())
		}
		if _, err := applyOps(in, ops); err != nil {
			t.Errorf("%s: write stream does not apply to its instance: %v", s.name, err)
		}
	}
}

func TestProvisionReadsAvoidWrittenSubscribers(t *testing.T) {
	s := specByName("provision")
	firstWritten := s.n - s.writeRegion()
	if got := len(s.pool()); got != topsTemplates*firstWritten {
		t.Fatalf("pool has %d queries, want %d", got, topsTemplates*firstWritten)
	}
	ws := s.scaled().writeStream(1, s.scaled().instance(1))
	for i := 0; i < 60; i++ {
		w := ws.next()
		dn := w.entry.DN().String()
		sub, ok := subscriberOf(dn)
		if !ok {
			t.Fatalf("no subscriber in %q", dn)
		}
		if low := s.scaled().n - s.scaled().writeRegion(); sub < low {
			t.Errorf("write %d goes to subscriber %d, below the write region starting at %d", i, sub, low)
		}
	}
}

// subscriberOf extracts N from "..., uid=subN, ...".
func subscriberOf(dn string) (int, bool) {
	_, rest, ok := strings.Cut(dn, "uid=sub")
	if !ok {
		return 0, false
	}
	n := 0
	for _, c := range rest {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "read", Op: 7, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 7, Parent: 0, Start: 10, End: 40},
		{Name: "b", Op: 7, Parent: 0, Start: 50, End: 90},
		{Name: "leaf", Op: 7, Parent: 2, Start: 60, End: 70},
		{Name: "read", Op: 8, Parent: -1, Start: 100, End: 130},
		{Name: "a", Op: 8, Parent: 4, Start: 105, End: 125},
	}
	if got, want := selfTimes(spans), []int64{30, 30, 30, 10, 10, 20}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if err := checkSpans(spans); err != nil {
		t.Errorf("checkSpans on a well-formed tree: %v", err)
	}
	dur, self := layerTotals(spans)
	if dur["a"] != 50 || self["a"] != 50 || dur["b"] != 40 || self["b"] != 30 || self["read"] != 40 {
		t.Errorf("layerTotals: dur %v self %v", dur, self)
	}

	outside := append([]span(nil), spans...)
	outside[3].End = 95 // the leaf outlives its parent b
	if err := checkSpans(outside); err == nil {
		t.Error("checkSpans accepted a child that ends after its parent")
	}
	otherOp := append([]span(nil), spans...)
	otherOp[5].Op = 7
	if err := checkSpans(otherOp); err == nil {
		t.Error("checkSpans accepted a child of another op")
	}

	// The recorder builds the same shape from begin/end calls.
	r := recorder{on: true, origin: time.Now()}
	root := r.begin("read", 1)
	a := r.begin("a", 1)
	r.end(a)
	b := r.begin("b", 1)
	leaf := r.begin("leaf", 1)
	r.end(leaf)
	r.end(b)
	r.end(root)
	var parents []int
	for _, s := range r.spans {
		parents = append(parents, s.Parent)
	}
	if want := []int{-1, 0, 0, 2}; !reflect.DeepEqual(parents, want) {
		t.Errorf("recorder parents = %v, want %v", parents, want)
	}
	if err := checkSpans(r.spans); err != nil {
		t.Errorf("checkSpans on recorded spans: %v", err)
	}
	off := recorder{}
	off.end(off.begin("x", 1))
	if len(off.spans) != 0 {
		t.Error("a recorder that is off recorded a span")
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP dirkit_dir_cache_hits cache lookups served from the cache
# TYPE dirkit_dir_cache_hits gauge
dirkit_dir_cache_hits 1234

# HELP dirkit_server_query_io_pages per-query page I/O (reads+writes)
# TYPE dirkit_server_query_io_pages histogram
dirkit_server_query_io_pages_bucket{le="0"} 2
dirkit_server_query_io_pages_bucket{le="+Inf"} 10
dirkit_server_query_io_pages_sum 37
dirkit_server_query_io_pages_count 10
dirkit_durable_fsynced_bytes 1.5e+06
`
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"dirkit_dir_cache_hits":                          1234,
		`dirkit_server_query_io_pages_bucket{le="0"}`:    2,
		`dirkit_server_query_io_pages_bucket{le="+Inf"}`: 10,
		"dirkit_server_query_io_pages_sum":               37,
		"dirkit_server_query_io_pages_count":             10,
		"dirkit_durable_fsynced_bytes":                   1.5e6,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseMetrics = %v, want %v", got, want)
	}
	for _, bad := range []string{"novalue\n", "name notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("parseMetrics(%q) did not fail", bad)
		}
	}
}

func TestProcParsers(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := "4242 (dir serve) x) S 1 4242 4242 0 -1 4194560 9000 0 0 0 150 25 0 0 20 0 9 0 100 1000000 2000 18446744073709551615"
	cpu, err := parseProcStatCPU(stat)
	if err != nil || cpu != 1750*time.Millisecond {
		t.Errorf("parseProcStatCPU = %v, %v; want 1.75s (150+25 ticks)", cpu, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("parseProcStatCPU accepted garbage")
	}
	mb, err := parseStatusMB("Name:\tdirserve\nVmPeak:\t  999 kB\nVmHWM:\t  268288 kB\nVmRSS:\t 1 kB\n", "VmHWM")
	if err != nil || mb != 262 {
		t.Errorf("parseStatusMB = %v, %v; want 262 MB", mb, err)
	}
	if _, err := parseStatusMB("Name:\tx\n", "VmHWM"); err == nil {
		t.Error("parseStatusMB found a peak where there is none")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v, %v; want 0.75, 2.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
	if q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2}); q1 != 1 || q3 != 5 {
		t.Errorf("quartiles(3,1,4,1,5,9,2) = %v, %v; want 1, 5", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "qps", Better: "higher", Bound: 0.10}
	tight := func(center float64) side {
		return newSide([]float64{center * 0.99, center, center * 1.01, center * 0.995, center * 1.005})
	}
	wide := func(center float64) side {
		return newSide([]float64{center * 0.7, center, center * 1.3, center * 0.8, center * 1.2})
	}
	cases := []struct {
		d    metricDef
		a, b side
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(80), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "ok"},
		{lower, wide(100), tight(100), "unresolved"},
		{lower, tight(100), wide(130), "unresolved"},
		// Too noisy to bound, but every run of B beats every run of A.
		{lower, wide(100), newSide([]float64{50, 55, 60}), "ok"},
		{higher, wide(100), newSide([]float64{150, 155, 160}), "ok"},
	}
	for i, c := range cases {
		if got, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s (A %v, B %v)", i, got, c.want, c.a.values, c.b.values)
		}
	}
	if s := newSide([]float64{4, 1, 3, 2}); s.median != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", s.median)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkJSON
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\ndirload reports:\n%v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\ndirload reports:\n%v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, dirload has %d", len(f.Workloads), len(specs))
	}
	for i, w := range f.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in dirload", i, w.Name, specs[i].name)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestGoldenAnalytic re-derives the pinned answers of the analytic
// workload at seed 1 from the engine as it is now: an engine change
// that alters an answer fails here, in `go test ./...`, without a child
// process.
func TestGoldenAnalytic(t *testing.T) {
	g, err := readGolden("../golden.json")
	if err != nil {
		t.Fatal(err)
	}
	s := specByName("analytic")
	ref, err := core.Open(s.instance(1), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := evalPool(ref, s.pool())
	if err != nil {
		t.Fatal(err)
	}
	checked, bad := checkGolden(g, s.name, 1, goldenRows(1, s.pool(), want))
	if checked != len(analyticQueries) || bad != 0 {
		t.Errorf("golden check compared %d rows, %d differ; want %d and 0", checked, bad, len(analyticQueries))
	}
	for _, name := range []string{"lookup", "policy", "provision"} {
		for _, seed := range []string{"1", "2"} {
			if got := len(g[name][seed]); got != goldenSampleSize {
				t.Errorf("golden.json pins %d answers for %s seed %s, want %d", got, name, seed, goldenSampleSize)
			}
		}
	}
}
