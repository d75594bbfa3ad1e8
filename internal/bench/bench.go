// Package bench implements the reproduction experiments E1–E16 and the
// ablations of DESIGN.md: each experiment exercises one quantitative or
// qualitative claim of "Querying Network Directories" (a theorem, an
// algorithm figure, or a worked example) and reports a table of
// measured page I/O. cmd/dirbench runs them all; the root bench_test.go
// wraps them as testing.B benchmarks.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// Table is one experiment's report.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper artifact being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
	// Latency holds the distribution of per-evaluation wall times
	// (microseconds) observed through MeasureIO while the experiment
	// ran: count, sum, and p50/p95/p99. Populated by RunSpec; nil when
	// the experiment was run directly or performed no measured
	// evaluations.
	Latency *obs.HistSnapshot `json:",omitempty"`
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   reproduces: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%*s", widths[i], c)
		}
		fmt.Fprintln(w, "   "+strings.Join(parts, "  "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Slope fits log(y) = a + s*log(x) by least squares and returns s: ~1
// for linear scaling, ~2 for quadratic, slightly above 1 for N log N.
func Slope(xs, ys []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(math.Max(ys[i], 1))
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

// Env is a prepared experiment environment: a directory and one
// evaluation session over it. Eng evaluates on Arena — operand lists,
// intermediates and results land on its scratch disk, store reads are
// charged to its meter — and MeasureIO reads that arena's counters.
type Env struct {
	Dir    *core.Directory
	Eng    *engine.Engine // a session on Arena
	Arena  *pager.Arena
	Schema *model.Schema
}

// newEnv opens one session over dir's current snapshot.
func newEnv(dir *core.Directory) *Env {
	eng := dir.Engine()
	arena := pager.NewArena(eng.Store().Disk())
	return &Env{Dir: dir, Eng: eng.Session(arena), Arena: arena, Schema: dir.Schema()}
}

// ForestEnv builds a random-forest directory of n entries.
func ForestEnv(n int, seed int64, pageSize int) *Env {
	in := workload.RandomForest(workload.ForestConfig{N: n, Seed: seed})
	return openEnv(in, pageSize)
}

// QoSEnv builds a QoS policy directory with the given total policies.
func QoSEnv(policies int, seed int64, pageSize int) *Env {
	domains := 1 + policies/100
	in := workload.GenQoS(workload.QoSConfig{
		Domains:           domains,
		PoliciesPerDomain: (policies + domains - 1) / domains,
		Seed:              seed,
	})
	return openEnv(in, pageSize)
}

// TOPSEnv builds a TOPS directory with the given subscriber count.
func TOPSEnv(subscribers int, seed int64, pageSize int) *Env {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: subscribers, Seed: seed})
	return openEnv(in, pageSize)
}

func openEnv(in *model.Instance, pageSize int) *Env {
	dir, err := core.Open(in, core.Options{PageSize: pageSize})
	if err != nil {
		panic(err)
	}
	return newEnv(dir)
}

// Lists evaluates atomic queries into operand lists (outside the
// measured section).
func (e *Env) Lists(atomics ...string) []*plist.List {
	out := make([]*plist.List, len(atomics))
	for i, a := range atomics {
		q := query.MustParse(a).(*query.Atomic)
		l, err := e.Eng.Store().EvalArena(e.Arena, q)
		if err != nil {
			panic(err)
		}
		out[i] = l
	}
	return out
}

// latHist, when non-nil, collects the wall time of every MeasureIO
// evaluation. RunSpec points it at a per-experiment histogram; the
// experiments run one at a time, so a package variable suffices.
var latHist *obs.Histogram

// MeasureIO runs fn and returns the page I/O it performed on the
// environment's arena, recording fn's wall time in the current
// experiment's latency histogram.
func (e *Env) MeasureIO(fn func() error) int64 {
	before := e.Arena.Stats()
	start := time.Now()
	if err := fn(); err != nil {
		panic(err)
	}
	if latHist != nil {
		latHist.ObserveDuration(time.Since(start))
	}
	return e.Arena.Stats().Sub(before).IO()
}

// pagesOf sums list page counts.
func pagesOf(ls ...*plist.List) int {
	n := 0
	for _, l := range ls {
		n += l.Pages()
	}
	return n
}

// freeLists releases operand lists.
func freeLists(ls ...*plist.List) {
	for _, l := range ls {
		if l != nil {
			_ = l.Free()
		}
	}
}

// unindexedStore builds an unindexed store for E15.
func unindexedStore(in *model.Instance, pageSize int) *store.Store {
	st, err := store.Build(pager.NewDisk(pageSize), in, store.Options{AttrIndex: false})
	if err != nil {
		panic(err)
	}
	return st
}
