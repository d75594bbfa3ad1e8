package bench

import (
	"fmt"
	"time"

	"repro/internal/plist"
	"repro/internal/query"
)

// E7ERDV: the embedded-reference operators cost linear scans plus a
// sort of the LP pair list — Theorem 7.1's O(|L1|/B + (|L2|m/B)
// log(|L2|m/B)). The I/O-per-page ratio therefore grows slowly (log)
// with N instead of staying flat.
func E7ERDV(sizes []int) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "ComputeERAggDV / VD: sort-merge embedded references",
		Claim:  "Fig 3 + Theorem 7.1: linear + sort term",
		Header: []string{"policies", "in pages", "IO dv", "IO vd", "IO dv/page"},
	}
	var xs, ys []float64
	for _, n := range sizes {
		env := QoSEnv(n, 5, 0)
		ls := env.Lists(
			"(dc=att, dc=com ? sub ? objectClass=trafficProfile)",
			"(dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)")
		var out *plist.List
		ioDV := env.MeasureIO(func() error {
			var e error
			// dv: profiles referenced by some policy's SLATPRef.
			out, e = env.Eng.ComputeERAggDV(ls[0], ls[1], "SLATPRef", nil)
			return e
		})
		freeLists(out)
		ioVD := env.MeasureIO(func() error {
			var e error
			// vd: policies referencing some profile.
			out, e = env.Eng.ComputeERAggVD(ls[1], ls[0], "SLATPRef", nil)
			return e
		})
		freeLists(out)
		in := pagesOf(ls...)
		t.AddRow(n, in, ioDV, ioVD, float64(ioDV)/float64(in))
		xs = append(xs, float64(in))
		ys = append(ys, float64(ioDV))
		freeLists(ls...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"log-log slope: %.2f (Theorem 7.1 predicts slightly above 1.0, far below 2.0)", Slope(xs, ys)))
	return t
}

// E8PipelineL2: whole L2 query trees evaluate in O(|Q| * |L|/B)
// (Theorem 8.3): I/O normalized by |Q| times the cumulative atomic
// output size stays bounded as both grow.
func E8PipelineL2(sizes []int) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "Pipelined evaluation of composed L2 queries",
		Claim:  "Theorem 8.3: O(|Q| * |L|/B) I/O, constant memory",
		Header: []string{"N", "|Q|", "atomic pages |L|/B", "IO", "IO/(|Q|*|L|/B)"},
	}
	queries := []string{
		`(c (& ( ? sub ? tag=a) ( ? sub ? val<5)) (| ( ? sub ? tag=b) ( ? sub ? tag=c)) count($2) > 0)`,
		`(g (a (- ( ? sub ? tag=a) ( ? sub ? val<2)) ( ? sub ? tag=b)) count(val) >= 1)`,
		`(dc (& ( ? sub ? tag=a) ( ? sub ? tag=a)) (d ( ? sub ? tag=b) ( ? sub ? val>=1)) ( ? sub ? tag=c) count($2) >= 1)`,
	}
	for _, n := range sizes {
		env := ForestEnv(n, 6, 0)
		for qi, qs := range queries {
			q := query.MustParse(qs)
			// Cumulative atomic output size |L|.
			atomPages := 0
			query.Walk(q, func(node query.Query) {
				if a, ok := node.(*query.Atomic); ok {
					l, err := env.Eng.Store().EvalArena(env.Arena, a)
					if err != nil {
						panic(err)
					}
					atomPages += l.Pages()
					freeLists(l)
				}
			})
			var out *plist.List
			io := env.MeasureIO(func() error {
				var e error
				out, e = env.Eng.Eval(q)
				return e
			})
			freeLists(out)
			sz := query.Size(q)
			t.AddRow(fmt.Sprintf("%d/q%d", n, qi+1), sz, atomPages, io,
				float64(io)/float64(sz*atomPages))
		}
	}
	t.Notes = append(t.Notes, "the normalized column is the constant of Theorem 8.3; it must not grow with N")
	return t
}

// E9PipelineL3: L3 trees pick up the sort term of Theorem 8.4.
func E9PipelineL3(sizes []int) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Pipelined evaluation of composed L3 queries",
		Claim:  "Theorem 8.4: O(|Q| * (|L|/B) m log((|L|/B) m)) I/O",
		Header: []string{"N", "in pages", "IO", "IO/page"},
	}
	var xs, ys []float64
	qs := `(vd (g ( ? sub ? tag=a) count(ref) >= 1) (d ( ? sub ? tag=b) ( ? sub ? val<6)) ref)`
	for _, n := range sizes {
		env := ForestEnv(n, 7, 0)
		q := query.MustParse(qs)
		atomPages := 0
		query.Walk(q, func(node query.Query) {
			if a, ok := node.(*query.Atomic); ok {
				l, err := env.Eng.Store().EvalArena(env.Arena, a)
				if err != nil {
					panic(err)
				}
				atomPages += l.Pages()
				freeLists(l)
			}
		})
		var out *plist.List
		io := env.MeasureIO(func() error {
			var e error
			out, e = env.Eng.Eval(q)
			return e
		})
		freeLists(out)
		t.AddRow(n, atomPages, io, float64(io)/float64(atomPages))
		xs = append(xs, float64(atomPages))
		ys = append(ys, float64(io))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("log-log slope: %.2f (N log N: slightly above 1.0)", Slope(xs, ys)))
	return t
}

// E10NaiveVsStack: the crossover the paper motivates in Section 5.3 —
// the "straightforward way" is quadratic, the stack algorithm linear.
func E10NaiveVsStack(sizes []int) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Naive quadratic vs stack-based hierarchical selection",
		Claim:  "Section 5.3: straightforward evaluation is quadratic; the stack algorithm is linear",
		Header: []string{"N", "in pages", "IO naive", "IO stack", "naive/stack", "t naive", "t stack"},
	}
	var xsN, ysN, xsS, ysS []float64
	for _, n := range sizes {
		env := ForestEnv(n, 8, 0)
		ls := env.Lists("( ? sub ? tag=a)", "( ? sub ? tag=b)")
		var out *plist.List
		t0 := time.Now()
		ioNaive := env.MeasureIO(func() error {
			var e error
			out, e = env.Eng.NaiveHier(query.OpAncestors, ls[0], ls[1], nil, nil)
			return e
		})
		dNaive := time.Since(t0)
		freeLists(out)
		t0 = time.Now()
		ioStack := env.MeasureIO(func() error {
			var e error
			out, e = env.Eng.ComputeHSAD(query.OpAncestors, ls[0], ls[1])
			return e
		})
		dStack := time.Since(t0)
		freeLists(out)
		in := pagesOf(ls...)
		t.AddRow(n, in, ioNaive, ioStack,
			float64(ioNaive)/float64(ioStack),
			dNaive.Round(time.Microsecond).String(),
			dStack.Round(time.Microsecond).String())
		xsN = append(xsN, float64(in))
		ysN = append(ysN, float64(ioNaive))
		xsS = append(xsS, float64(in))
		ysS = append(ysS, float64(ioStack))
		freeLists(ls...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"log-log slopes: naive %.2f (quadratic = 2.0), stack %.2f (linear = 1.0)",
		Slope(xsN, ysN), Slope(xsS, ysS)))
	return t
}

// E12AcEncodesP: Theorem 8.2(d) shows ac can express p, but Section 8.1
// warns the encoding's third operand is the whole instance, making it
// "very expensive". Both forms return identical answers; the encoding's
// I/O grows with the instance, the native p only with its operands.
func E12AcEncodesP(sizes []int) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Expressing p through ac (whole-instance third operand)",
		Claim:  "Theorem 8.2(d) + the Section 8.1 cost remark",
		Header: []string{"N", "operand pages", "instance pages", "IO p", "IO ac-encoding", "ratio"},
	}
	for _, n := range sizes {
		env := ForestEnv(n, 9, 0)
		// Operands are pinned to fixed-size answer sets (exact names) so
		// the encoding's third operand — the whole instance — grows with
		// N while |L1| + |L2| stays constant.
		ls := env.Lists("( ? sub ? n=e3)", "( ? sub ? n=e7)", "( ? sub ? objectClass=*)")
		var pOut, acOut *plist.List
		ioP := env.MeasureIO(func() error {
			var e error
			pOut, e = env.Eng.ComputeHSPC(query.OpParents, ls[0], ls[1])
			return e
		})
		ioAC := env.MeasureIO(func() error {
			var e error
			acOut, e = env.Eng.ComputeHSADc(query.OpAncestorsC, ls[0], ls[1], ls[2])
			return e
		})
		// Same answers (Theorem 8.2(d)).
		pk, err := plist.Drain(pOut)
		if err != nil {
			panic(err)
		}
		ak, err := plist.Drain(acOut)
		if err != nil {
			panic(err)
		}
		if len(pk) != len(ak) {
			panic(fmt.Sprintf("E12: encoding disagrees: %d vs %d", len(pk), len(ak)))
		}
		for i := range pk {
			if pk[i].Key != ak[i].Key {
				panic("E12: encoding disagrees on an entry")
			}
		}
		t.AddRow(n, pagesOf(ls[0], ls[1]), ls[2].Pages(), ioP, ioAC,
			float64(ioAC)/float64(ioP))
		freeLists(pOut, acOut)
		freeLists(ls...)
	}
	t.Notes = append(t.Notes, "answers verified identical; the ratio grows with instance size / operand size")
	return t
}
