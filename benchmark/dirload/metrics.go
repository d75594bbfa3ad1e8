package main

import (
	"fmt"
	"sort"
)

// metricDef is one row of BENCHMARK.json: the tool and the file must
// agree on it (TestBenchmarkJSONMatches), and -compare reads its
// direction and bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // share of the base's median an end-to-end metric may worsen; 0 for per-layer
}

// endToEnd are the metrics a user of dirserve would see, reported by a
// timed (--trace 0) run of every workload. On lookup, analytic and
// policy the "primary request" is a closed-loop read; on provision it
// is the closed-loop durable write (its open-loop reads are printed as
// diagnostics) — see README.md for why the names are shared.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayer are the single-layer metrics of a traced (--trace 1) run.
// They carry no bound: they explain a move in an end-to-end metric,
// they do not gate.
var perLayer = []metricDef{
	// The wire window against the child: CallTraced reply timings and
	// the child's /metrics.
	{"dirserver.wire_us", "us", "lower", 0},
	{"dirserver.queue_us", "us", "lower", 0},
	{"dirserver.serve_us", "us", "lower", 0},
	{"dirserver.retries", "count", "lower", 0},
	// The tail of the primary request's round trip: demoted from the
	// end-to-end list (README.md, Demotions).
	{"dirserver.p95_ms", "ms", "lower", 0},
	{"pager.pages_per_op", "pages", "lower", 0},
	{"qcache.hit_ratio", "ratio", "higher", 0},
	{"qcache.evictions", "count", "lower", 0},
	{"core.swaps", "count", "higher", 0},
	// The in-process traced read pass: mean self time per op of each
	// layer's public entry point.
	{"query.parse_us", "us", "lower", 0},
	{"query.validate_us", "us", "lower", 0},
	{"query.canonical_us", "us", "lower", 0},
	{"store.atomic_us", "us", "lower", 0},
	{"store.atomic_pages", "pages", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.get_pages", "pages", "lower", 0},
	{"engine.eval_us", "us", "lower", 0},
	{"engine.eval_pages", "pages", "lower", 0},
	{"engine.operator_us", "us", "lower", 0},
	{"plist.drain_us", "us", "lower", 0},
	{"plist.records_per_op", "count", "lower", 0},
	{"plist.bytes_per_op", "bytes", "lower", 0},
	{"ldif.marshal_us", "us", "lower", 0},
	{"ldif.unmarshal_us", "us", "lower", 0},
	{"ldif.bytes_per_op", "bytes", "lower", 0},
	{"core.search_us", "us", "lower", 0},
	{"core.overhead_us", "us", "lower", 0},
	{"core.search_allocs", "count", "lower", 0},
	{"core.search_alloc_bytes", "bytes", "lower", 0},
	{"obs.trace_overhead_ratio", "ratio", "lower", 0},
	{"trace.harness_overhead_ratio", "ratio", "lower", 0},
	// Building the instance and its store.
	{"workload.gen_us_per_entry", "us", "lower", 0},
	{"core.open_us_per_entry", "us", "lower", 0},
	{"store.pages_per_entry", "pages", "lower", 0},
	{"store.image_bytes", "bytes", "lower", 0},
	{"core.heap_mb_after_open", "MB", "lower", 0},
	// The in-process write probe: UpdateEntries then a synchronous
	// delta checkpoint per write, then Recover.
	{"core.update_us", "us", "lower", 0},
	{"core.update_allocs", "count", "lower", 0},
	{"pager.dirty_pages_per_write", "pages", "lower", 0},
	{"store.overlay_len", "count", "lower", 0},
	{"core.checkpoint_us", "us", "lower", 0},
	{"durable.commit_us", "us", "lower", 0},
	{"durable.commit_bytes_per_write", "bytes", "lower", 0},
	{"durable.fsynced_bytes_per_write", "bytes", "lower", 0},
	{"durable.write_amp", "ratio", "lower", 0},
	{"durable.space_amp", "ratio", "lower", 0},
	{"core.recover_us", "us", "lower", 0},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects measured values by name and renders exactly the
// metrics a definition list names, so a run can never emit a metric
// BENCHMARK.json does not declare, nor omit one it does.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
