package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metric is the common face of everything a Registry holds.
type metric interface {
	metricName() string
	metricHelp() string
	metricKind() string // "counter" | "gauge" | "histogram"
}

// Counter is a monotonically increasing integer.
type Counter struct {
	name, help string
	v          atomic.Int64
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricKind() string { return "counter" }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the exposition to stay
// Prometheus-legal; this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer that can go up and down. A Gauge created with
// GaugeFunc is pull-based: its value is computed at scrape time, which
// is how the registry absorbs pre-existing counters (Coordinator,
// breaker, qcache stats) without double bookkeeping.
type Gauge struct {
	name, help string
	v          atomic.Int64
	fn         func() int64 // nil unless pull-based
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricKind() string { return "gauge" }

// Set stores v (no-op on a pull-based gauge).
func (g *Gauge) Set(v int64) {
	if g.fn == nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by n (no-op on a pull-based gauge).
func (g *Gauge) Add(n int64) {
	if g.fn == nil {
		g.v.Add(n)
	}
}

// Value returns the current value, invoking the pull function if set.
func (g *Gauge) Value() int64 {
	if g.fn != nil {
		return g.fn()
	}
	return g.v.Load()
}

// histBuckets is the number of log₂ buckets: bucket 0 holds value 0,
// bucket i (i ≥ 1) holds values in [2^(i-1), 2^i). 64-bit values fit
// in bits.Len64's range, so 65 buckets cover every int64 ≥ 0.
const histBuckets = 65

// Histogram is a log₂-bucketed distribution of non-negative int64
// observations (microseconds of latency, pages of I/O, result
// cardinalities). Powers of two match the paper's asymptotic claims:
// a linear-I/O operator's histogram shifts one bucket when the input
// doubles. Observation is lock-free; quantiles are estimated by
// within-bucket linear interpolation.
type Histogram struct {
	name, help string
	count      atomic.Int64
	sum        atomic.Int64
	buckets    [histBuckets]atomic.Int64
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricKind() string { return "histogram" }

// NewHistogram creates a standalone histogram (registry-less use:
// benchmark collectors, span aggregation).
func NewHistogram(name, help string) *Histogram {
	return &Histogram{name: name, help: help}
}

// Observe records one value; negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
}

// ObserveDuration records a duration in microseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Microseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// bucketBounds returns bucket i's half-open range [lo, hi).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return math.Exp2(float64(i - 1)), math.Exp2(float64(i))
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the containing log₂ bucket. With no
// observations it returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i := 0; i < histBuckets; i++ {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*((rank-cum)/c)
		}
		cum += c
	}
	lo, _ := bucketBounds(histBuckets - 1)
	return lo
}

// HistSnapshot is a point-in-time view of a histogram, with the
// standard serving quantiles precomputed.
type HistSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Snapshot captures count, sum and the p50/p95/p99 estimates.
func (h *Histogram) Snapshot() HistSnapshot {
	return HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// Registry is a named set of metrics. Registration is idempotent:
// asking for an existing name of the same kind returns the existing
// metric, so independent subsystems can share one registry without
// coordination. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

func (r *Registry) register(name string, make func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := make()
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{name: name, help: help} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.metricKind()))
	}
	return c
}

// Gauge returns the named set-based gauge, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{name: name, help: help} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.metricKind()))
	}
	return g
}

// GaugeFunc registers a pull-based gauge whose value is fn() at scrape
// time. Registering an existing name replaces nothing and keeps the
// first registration.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	r.register(name, func() metric { return &Gauge{name: name, help: help, fn: fn} })
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name, help string) *Histogram {
	m := r.register(name, func() metric { return &Histogram{name: name, help: help} })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.metricKind()))
	}
	return h
}

// sorted returns the metrics in name order (stable exposition).
func (r *Registry) sorted() []metric {
	r.mu.Lock()
	out := make([]metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].metricName() < out[j].metricName() })
	return out
}

// QueryMetrics bundles the per-query serving metrics every query
// surface (server, coordinator, bench) records the same way.
type QueryMetrics struct {
	Queries *Counter   // queries served
	Errors  *Counter   // queries that returned an error
	Latency *Histogram // per-query wall time, microseconds
	IO      *Histogram // per-query page I/O (reads+writes)
	Results *Histogram // per-query result cardinality
}

// NewQueryMetrics registers the standard query metrics under the given
// name prefix (e.g. "dirkit_server").
func NewQueryMetrics(r *Registry, prefix string) *QueryMetrics {
	return &QueryMetrics{
		Queries: r.Counter(prefix+"_queries_total", "queries served"),
		Errors:  r.Counter(prefix+"_query_errors_total", "queries that returned an error"),
		Latency: r.Histogram(prefix+"_query_latency_us", "per-query wall time (microseconds)"),
		IO:      r.Histogram(prefix+"_query_io_pages", "per-query page I/O (reads+writes)"),
		Results: r.Histogram(prefix+"_query_results", "per-query result cardinality"),
	}
}

// Observe records one served query.
func (m *QueryMetrics) Observe(d time.Duration, ioPages, results int64, failed bool) {
	if m == nil {
		return
	}
	m.Queries.Inc()
	if failed {
		m.Errors.Inc()
		return
	}
	m.Latency.ObserveDuration(d)
	m.IO.Observe(ioPages)
	m.Results.Observe(results)
}
