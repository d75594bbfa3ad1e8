package dirserver

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ldif"
	"repro/internal/obs"
	"repro/internal/workload"
)

// promValue extracts the value of a bare (unlabeled) sample from a
// Prometheus text exposition.
func promValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			t.Fatalf("parsing %s: %v", line, err)
		}
		return int64(f)
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, body)
	return 0
}

// TestServerMetricsMatchWorkload is the acceptance check for the
// metrics surface: run a scripted workload against an instrumented
// server and assert the /metrics histogram counts equal the workload's
// composition exactly.
func TestServerMetricsMatchWorkload(t *testing.T) {
	whole, _, _ := splitPaperDirectory(t)
	reg := obs.NewRegistry()
	qm := obs.NewQueryMetrics(reg, "dirkit_server")
	var slow bytes.Buffer
	srv, err := ServeWith(whole, "127.0.0.1:0", ServerConfig{
		Metrics: qm,
		SlowLog: obs.NewSlowLog(&slow, 0, 0), // both thresholds zero: log everything
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	admin, err := obs.ServeAdmin("127.0.0.1:0", reg, func() any { return map[string]int{"zones": 1} })
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	// The scripted workload: 5 well-formed queries with known result
	// sizes, then 3 parse failures.
	okQueries := []string{
		"(dc=com ? sub ? objectClass=dcObject)",
		"(dc=com ? sub ? objectClass=TOPSSubscriber)",
		"(dc=com ? sub ? objectClass=dcObject)",
		"(dc=att, dc=com ? sub ? dc=*)",
		"(dc=com ? sub ? objectClass=QHP)",
	}
	cl := NewClient(whole.Schema(), ClientConfig{})
	defer cl.Close()
	ctx := context.Background()
	var totalEntries int64
	for _, q := range okQueries {
		entries, err := cl.Call(ctx, srv.Addr(), "query", q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		totalEntries += int64(len(entries))
	}
	badQueries := []string{"(((", ")", "(x ? sub"}
	for _, q := range badQueries {
		if _, err := cl.Call(ctx, srv.Addr(), "query", q); err == nil {
			t.Fatalf("%s: expected error", q)
		}
	}

	res, err := http.Get("http://" + admin.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	wantOK := int64(len(okQueries))
	wantBad := int64(len(badQueries))
	if got := promValue(t, text, "dirkit_server_queries_total"); got != wantOK+wantBad {
		t.Errorf("queries_total = %d, want %d", got, wantOK+wantBad)
	}
	if got := promValue(t, text, "dirkit_server_query_errors_total"); got != wantBad {
		t.Errorf("query_errors_total = %d, want %d", got, wantBad)
	}
	// Histograms observe successful queries only; every count must
	// equal the scripted success count, and the results histogram's sum
	// must equal the total entries returned.
	for _, h := range []string{
		"dirkit_server_query_latency_us_count",
		"dirkit_server_query_io_pages_count",
		"dirkit_server_query_results_count",
	} {
		if got := promValue(t, text, h); got != wantOK {
			t.Errorf("%s = %d, want %d", h, got, wantOK)
		}
	}
	if got := promValue(t, text, "dirkit_server_query_results_sum"); got != totalEntries {
		t.Errorf("query_results_sum = %d, want %d", got, totalEntries)
	}

	// The firehose slow log saw every request, errors included.
	lines := strings.Count(strings.TrimSpace(slow.String()), "\n") + 1
	if int64(lines) != wantOK+wantBad {
		t.Errorf("slow log lines = %d, want %d\n%s", lines, wantOK+wantBad, slow.String())
	}
	if !strings.Contains(slow.String(), `"err"`) {
		t.Error("slow log did not record the failed queries' errors")
	}

	// /statusz carries both the metric snapshot and the caller status.
	res, err = http.Get("http://" + admin.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"dirkit_server_queries_total", `"zones"`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/statusz missing %q:\n%s", want, body)
		}
	}
}

// TestServedCacheFollowsTraceRule pins the server's two-term trace
// rule against the directory's result cache: an untraced server with
// no flight recorder answers a repeated query from the cache; a flight
// recorder or a caller-propagated trace ID makes the request traced,
// and traced serving bypasses the cache (hits stay 0).
func TestServedCacheFollowsTraceRule(t *testing.T) {
	const q = "(dc=com ? sub ? objectClass=QHP)"
	for _, tc := range []struct {
		name     string
		cfg      ServerConfig
		traceID  string
		wantHits int64
	}{
		{name: "untraced", wantHits: 1},
		{name: "flight", cfg: ServerConfig{Flight: obs.NewFlightRecorder(4)}},
		{name: "caller-trace", traceID: obs.NewTraceID()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, err := core.Open(workload.PaperInstance(), core.Options{CacheBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := ServeWith(dir, "127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl := NewClient(dir.Schema(), ClientConfig{})
			defer cl.Close()
			var replies [2]string
			for i := range replies {
				entries, _, _, err := cl.CallTraced(context.Background(), srv.Addr(), "query", q, tc.traceID, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(entries) == 0 {
					t.Fatal("empty answer: the comparison below would be vacuous")
				}
				for _, e := range entries {
					replies[i] += ldif.MarshalEntry(e)
				}
			}
			if replies[0] != replies[1] {
				t.Errorf("repeated query answered differently:\n%s\nvs\n%s", replies[0], replies[1])
			}
			if got := dir.CacheStats().Hits; got != tc.wantHits {
				t.Errorf("cache hits = %d, want %d", got, tc.wantHits)
			}
		})
	}
}

// federatedPair starts upper+policies servers, registers both zones,
// and returns a coordinator on the upper server.
func federatedPair(t *testing.T, cfg CoordinatorConfig) (*Coordinator, func()) {
	t.Helper()
	fed := newFederation(t, core.Options{})
	coord := NewCoordinatorWith(fed.upper, fed.reg, fed.self, cfg)
	return coord, func() {
		coord.Close()
		fed.close()
	}
}

// TestCoordinatorStatsRace hammers Stats() from many goroutines while
// others run distributed searches: the single mutex-guarded read path
// must stay data-race-free (this test is the -race stress for the
// Stats refactor) and every snapshot must be internally consistent.
func TestCoordinatorStatsRace(t *testing.T) {
	coord, done := federatedPair(t, CoordinatorConfig{})
	defer done()

	const (
		searchers = 4
		readers   = 4
		rounds    = 25
	)
	queries := []string{
		"(dc=com ? sub ? objectClass=TOPSSubscriber)",
		"(ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)",
		`(| (dc=com ? sub ? objectClass=TOPSSubscriber)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`,
	}
	stop := make(chan struct{})
	var search, read sync.WaitGroup
	for i := 0; i < searchers; i++ {
		search.Add(1)
		go func(i int) {
			defer search.Done()
			for r := 0; r < rounds; r++ {
				if _, err := coord.Search(context.Background(), queries[(i+r)%len(queries)]); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		read.Add(1)
		go func() {
			defer read.Done()
			var last CoordinatorStats
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := coord.Stats()
				// Counters are monotone; a snapshot may never go
				// backwards relative to an earlier one.
				if s.RemoteAtomics < last.RemoteAtomics || s.LocalAtomics < last.LocalAtomics ||
					s.Retries < last.Retries || s.BreakerTrips < last.BreakerTrips {
					t.Errorf("stats went backwards: %+v then %+v", last, s)
					return
				}
				last = s
				_ = coord.RemoteAtomics()
			}
		}()
	}
	search.Wait()
	close(stop)
	read.Wait()

	s := coord.Stats()
	if s.RemoteAtomics == 0 {
		t.Error("no remote atomics recorded")
	}
	if s.LocalAtomics == 0 {
		t.Error("no local atomics recorded")
	}
}

// TestCoordinatorRegisterMetrics: the pull-based gauges report exactly
// what Stats() reports.
func TestCoordinatorRegisterMetrics(t *testing.T) {
	coord, done := federatedPair(t, CoordinatorConfig{CacheBytes: 1 << 20})
	defer done()

	if _, err := coord.Search(context.Background(),
		"(ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coord.RegisterMetrics(reg, "dirkit_coord")
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	s := coord.Stats()
	if got := promValue(t, buf.String(), "dirkit_coord_remote_atomics"); got != s.RemoteAtomics {
		t.Errorf("gauge remote_atomics = %d, Stats says %d", got, s.RemoteAtomics)
	}
	if got := promValue(t, buf.String(), "dirkit_coord_local_atomics"); got != s.LocalAtomics {
		t.Errorf("gauge local_atomics = %d, Stats says %d", got, s.LocalAtomics)
	}
	// Cache gauges rode along because the remote-result cache is on.
	if !strings.Contains(buf.String(), "dirkit_coord_rcache_") {
		t.Errorf("remote-result cache gauges missing:\n%s", buf.String())
	}
}

// TestCoordinatorSpanAnnotations: a traced distributed search tags
// atomic spans with where each one resolved — the replica that
// answered remote atomics, "local" for delegated-but-local ones, and
// "cache" for round trips saved by the result cache.
func TestCoordinatorSpanAnnotations(t *testing.T) {
	coord, done := federatedPair(t, CoordinatorConfig{CacheBytes: 1 << 20, CacheTTL: time.Minute})
	defer done()

	q := `(| (dc=com ? sub ? objectClass=TOPSSubscriber)
	         (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`

	_, root, err := coord.SearchTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatal("no span tree")
	}
	var local, replica int
	root.Walk(func(s *obs.Span) {
		if v, _ := s.TagValue("resolve"); v == "local" {
			local++
		}
		if v, _ := s.TagValue("replica"); v != "" {
			replica++
		}
	})
	if local != 1 || replica != 1 {
		var b strings.Builder
		root.Format(&b)
		t.Fatalf("local=%d replica=%d, want 1 and 1\n%s", local, replica, b.String())
	}

	// Second traced run: the remote atomic is answered from the cache.
	_, root, err = coord.SearchTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	root.Walk(func(s *obs.Span) {
		if v, _ := s.TagValue("resolve"); v == "cache" {
			cached++
		}
	})
	if cached != 1 {
		t.Fatalf("cache-resolved spans = %d, want 1", cached)
	}
	if s := coord.Stats(); s.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", s.CacheHits)
	}
}
