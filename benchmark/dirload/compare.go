package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) does (the exclusive method),
// which is how the benchmark's spread is defined. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	m := len(data)
	cut := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// side is one result file's runs of one (workload, metric) pair.
type side struct {
	values []float64
	median float64
	spread float64 // (q3 - q1) / median; 0 with fewer than two runs
}

func newSide(values []float64) side {
	s := side{values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.median = (sorted[(len(sorted)-1)/2] + sorted[len(sorted)/2]) / 2
	if len(values) >= 2 && s.median != 0 {
		q1, q3 := quartiles(values)
		s.spread = (q3 - q1) / s.median
	}
	return s
}

// verdict judges one (workload, metric) pair: B against the base A.
//   - "unresolved": a side's run-to-run spread is wider than the bound,
//     so the medians cannot show a regression of that size — unless
//     every run of B reads better than every run of A;
//   - "worse": B's median is worse than A's by more than the bound;
//   - "ok" otherwise.
func verdict(d metricDef, a, b side) (status string, worseBy float64) {
	if a.median != 0 {
		worseBy = (b.median - a.median) / a.median
		if d.Better == "higher" {
			worseBy = -worseBy
		}
	}
	if a.spread > d.Bound || b.spread > d.Bound {
		if !allBetter(d, a.values, b.values) {
			return "unresolved", worseBy
		}
		return "ok", worseBy
	}
	if worseBy > d.Bound {
		return "worse", worseBy
	}
	return "ok", worseBy
}

// allBetter reports whether every value of b is better than every
// value of a.
func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// timed collects a file's timed-run values of one (workload, metric).
func (f *resultFile) timed(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric): both
// medians, their ratio and its base, each side's spread, the bound and
// the verdict. The exit code is 1 when any pair is worse or any run of
// B failed an op.
func compareFiles(pathA, pathB string, w io.Writer) (int, error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return 2, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 2, err
	}
	code := 0
	fmt.Fprintf(w, "base A = %s (commit %s), B = %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	fmt.Fprintf(w, "%-10s %-14s %12s %12s %8s %6s %9s %9s %6s %4s  %s\n",
		"workload", "metric", "median A", "median B", "B/A", "base", "spread A", "spread B", "bound", "n", "verdict")
	for _, s := range specs {
		for _, d := range a.EndToEnd {
			sa, sb := newSide(a.timed(s.name, d.Name)), newSide(b.timed(s.name, d.Name))
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			status, worseBy := verdict(d, sa, sb)
			if status == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-10s %-14s %12.4f %12.4f %8.3f %6s %8.1f%% %8.1f%% %5.0f%% %2d/%-2d %s (%+.1f%% %s)\n",
				s.name, d.Name, sa.median, sb.median, ratio(sb.median, sa.median), "A",
				100*sa.spread, 100*sb.spread, 100*d.Bound, len(sa.values), len(sb.values),
				status, 100*worseBy, map[bool]string{true: "worse", false: "better"}[worseBy > 0])
		}
	}
	for _, r := range b.Runs {
		if !r.Correct {
			fmt.Fprintf(w, "B: %s seed %d trace %d failed %d of %d ops\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
			code = 1
		}
	}
	return code, nil
}
