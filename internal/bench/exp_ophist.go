package bench

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/query"
)

// OperatorProfile runs a mixed workload covering every plan operator
// with tracing on and aggregates the spans by operator mnemonic: how
// often each operator ran, and the p50/p95 of its self page I/O and
// self wall time. This is the histogram view of what dirq -explain
// shows for one query — the shape of a whole workload's cost, operator
// by operator.
func OperatorProfile(n, rounds int) *Table {
	env := ForestEnv(n, 7, 0)
	// One query per language level, chosen so every operator appears:
	// the L0 booleans, the binary and ternary hierarchical selections,
	// aggregate selection, and reference chasing.
	queries := []string{
		`( ? sub ? tag=a)`,
		`(- ( ? sub ? tag=a) ( ? sub ? val<2))`,
		`(p ( ? sub ? tag=a) ( ? sub ? tag=b))`,
		`(a ( ? sub ? tag=a) ( ? sub ? tag=b))`,
		`(ac ( ? sub ? tag=a) ( ? sub ? tag=b) ( ? sub ? tag=c))`,
		`(c (& ( ? sub ? tag=a) ( ? sub ? val<5)) (| ( ? sub ? tag=b) ( ? sub ? tag=c)) count($2) > 0)`,
		`(dc (& ( ? sub ? tag=a) ( ? sub ? tag=a)) (d ( ? sub ? tag=b) ( ? sub ? val>=1)) ( ? sub ? tag=c) count($2) >= 1)`,
		`(vd (g ( ? sub ? tag=a) count(ref) >= 1) (d ( ? sub ? tag=b) ( ? sub ? val<6)) ref)`,
		`(dv ( ? sub ? tag=a) ( ? sub ? tag=b) ref count($2) >= 1)`,
	}
	type agg struct {
		io  *obs.Histogram
		dur *obs.Histogram
	}
	byOp := make(map[string]*agg)
	for r := 0; r < rounds; r++ {
		for _, qs := range queries {
			q := query.MustParse(qs)
			tr := obs.NewTracer(env.Arena)
			l, err := env.Eng.EvalContext(obs.WithTracer(context.Background(), tr), q)
			if err != nil {
				panic(err)
			}
			if err := l.Free(); err != nil {
				panic(err)
			}
			tr.Root().Walk(func(s *obs.Span) {
				a := byOp[s.Op]
				if a == nil {
					a = &agg{
						io:  obs.NewHistogram(s.Op+"_self_io", "self page I/O"),
						dur: obs.NewHistogram(s.Op+"_self_us", "self wall time (µs)"),
					}
					byOp[s.Op] = a
				}
				a.io.Observe(s.SelfIO().IO())
				a.dur.Observe(s.SelfDur().Microseconds())
			})
		}
	}
	ops := make([]string, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)

	t := &Table{
		ID:     "OP",
		Title:  "per-operator execution profile",
		Claim:  "span-level cost attribution across a mixed L0–L3 workload",
		Header: []string{"op", "spans", "selfIO p50", "selfIO p95", "µs p50", "µs p95"},
	}
	for _, op := range ops {
		a := byOp[op]
		t.AddRow(op, a.io.Count(),
			a.io.Quantile(0.50), a.io.Quantile(0.95),
			a.dur.Quantile(0.50), a.dur.Quantile(0.95))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("forest N=%d, %d rounds over %d queries", n, rounds, len(queries)))
	return t
}
