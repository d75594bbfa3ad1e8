package bench

import (
	"fmt"

	"repro/internal/obs"
)

// Preset selects experiment sizes.
type Preset struct {
	Linear   []int // sizes for E1–E6 (entries)
	Super    []int // sizes for E7–E9
	Cross    []int // sizes for E10 (naive is quadratic: keep modest)
	AcSizes  []int // sizes for E12
	Dist     []int // subscriber counts for E14
	IndexN   int   // directory size for E15
	AppScale int   // A4 runs on AppScale*4 TOPS subscribers
	StackN   int   // chain length for ablation A1
	CacheN   int   // directory size for E20
	CacheOps int   // evaluations per row for E20
	VecN     []int // forest sizes for E22 (clustered embeddings)
}

// Quick is sized for CI and go test; Full for cmd/dirbench reports.
var (
	Quick = Preset{
		Linear:   []int{500, 1000, 2000, 4000},
		Super:    []int{500, 1000, 2000},
		Cross:    []int{200, 400, 800},
		AcSizes:  []int{500, 1000, 2000},
		Dist:     []int{20},
		IndexN:   400,
		AppScale: 60,
		StackN:   120,
		CacheN:   1500,
		CacheOps: 400,
		VecN:     []int{1500, 3000},
	}
	Full = Preset{
		Linear:   []int{2000, 4000, 8000, 16000, 32000},
		Super:    []int{2000, 4000, 8000, 16000},
		Cross:    []int{250, 500, 1000, 2000},
		AcSizes:  []int{1000, 2000, 4000, 8000},
		Dist:     []int{40, 80},
		IndexN:   2000,
		AppScale: 150,
		StackN:   120,
		CacheN:   4000,
		CacheOps: 1200,
		VecN:     []int{4000, 8000, 16000},
	}
)

// Spec names one experiment and how to run it at a preset.
type Spec struct {
	ID  string
	Run func(Preset) *Table
}

// Specs is the experiment registry in DESIGN.md order.
var Specs = []Spec{
	{"E1", func(p Preset) *Table { return E1Boolean(p.Linear) }},
	{"E2", func(p Preset) *Table { return E2HSPC(p.Linear) }},
	{"E3", func(p Preset) *Table { return E3HSAD(p.Linear) }},
	{"E4", func(p Preset) *Table { return E4HSADc(p.Linear) }},
	{"E5", func(p Preset) *Table { return E5SimpleAgg(p.Linear) }},
	{"E6", func(p Preset) *Table { return E6HSAgg(p.Linear) }},
	{"E7", func(p Preset) *Table { return E7ERDV(p.Super) }},
	{"E8", func(p Preset) *Table { return E8PipelineL2(p.Super) }},
	{"E9", func(p Preset) *Table { return E9PipelineL3(p.Super) }},
	{"E10", func(p Preset) *Table { return E10NaiveVsStack(p.Cross) }},
	{"E11", func(Preset) *Table { return E11Hierarchy() }},
	{"E12", func(p Preset) *Table { return E12AcEncodesP(p.AcSizes) }},
	{"E14", func(p Preset) *Table { return E14Distributed(p.Dist) }},
	{"E15", func(p Preset) *Table { return E15AtomicIndex(p.IndexN) }},
	{"E17", func(Preset) *Table { return E17Operators([]int{3, 4, 5, 6, 8}) }},
	{"E20", func(p Preset) *Table { return E20ConcurrentSearch(p.CacheN, p.CacheOps) }},
	{"E22", func(p Preset) *Table { return E22VectorScope(p.VecN) }},
	{"A1", func(p Preset) *Table { return AblationStackWindow(p.StackN, []int{2, 4, 16, 64}) }},
	{"A2", func(Preset) *Table { return AblationBlockSize(4000, []int{1024, 2048, 4096, 8192}) }},
	{"A3", func(Preset) *Table { return AblationResort(4000) }},
	{"A4", func(p Preset) *Table { return A4Planner(p.AppScale * 4) }},
}

// RunSpec runs one experiment with a latency histogram attached: every
// MeasureIO evaluation's wall time is collected, and the p50/p95/p99
// snapshot lands in the table (as a note for the text rendering, as
// the Latency field for -json consumers).
func RunSpec(s Spec, p Preset) *Table {
	h := obs.NewHistogram(s.ID+"_latency_us", "per-evaluation wall time (microseconds)")
	latHist = h
	t := s.Run(p)
	latHist = nil
	if h.Count() > 0 {
		snap := h.Snapshot()
		t.Latency = &snap
		t.Notes = append(t.Notes, fmt.Sprintf(
			"latency over %d evaluations: p50 %.0fµs, p95 %.0fµs, p99 %.0fµs",
			snap.Count, snap.P50, snap.P95, snap.P99))
	}
	return t
}
