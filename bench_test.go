package repro

// One benchmark per experiment of DESIGN.md (E1–E16, A1–A3), each
// regenerating its EXPERIMENTS.md table at reduced scale, plus
// fine-grained operator benchmarks for the individual algorithms of the
// paper's figures. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/dirbench prints the full-scale tables.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// tiny is the benchmark-sized preset: one size point per experiment.
var tiny = bench.Preset{
	Linear:   []int{1500},
	Super:    []int{1000},
	Cross:    []int{300},
	AcSizes:  []int{1000},
	Dist:     []int{10},
	IndexN:   200,
	AppScale: 40,
	StackN:   120,
	CacheN:   800,
	CacheOps: 200,
}

func runSpec(b *testing.B, id string) {
	b.Helper()
	for _, s := range bench.Specs {
		if s.ID != id {
			continue
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := s.Run(tiny)
			if len(t.Rows) == 0 {
				b.Fatalf("%s produced no rows", id)
			}
		}
		return
	}
	b.Fatalf("no experiment %q", id)
}

func BenchmarkE1BooleanMerge(b *testing.B)  { runSpec(b, "E1") }
func BenchmarkE2HSPC(b *testing.B)          { runSpec(b, "E2") }
func BenchmarkE3HSAD(b *testing.B)          { runSpec(b, "E3") }
func BenchmarkE4HSADc(b *testing.B)         { runSpec(b, "E4") }
func BenchmarkE5SimpleAgg(b *testing.B)     { runSpec(b, "E5") }
func BenchmarkE6HSAgg(b *testing.B)         { runSpec(b, "E6") }
func BenchmarkE7ERDV(b *testing.B)          { runSpec(b, "E7") }
func BenchmarkE8PipelineL2(b *testing.B)    { runSpec(b, "E8") }
func BenchmarkE9PipelineL3(b *testing.B)    { runSpec(b, "E9") }
func BenchmarkE10NaiveVsStack(b *testing.B) { runSpec(b, "E10") }
func BenchmarkE11Hierarchy(b *testing.B)    { runSpec(b, "E11") }
func BenchmarkE12AcEncodesP(b *testing.B)   { runSpec(b, "E12") }
func BenchmarkE14Distributed(b *testing.B)  { runSpec(b, "E14") }
func BenchmarkE15AtomicIndex(b *testing.B)  { runSpec(b, "E15") }
func BenchmarkE16Apps(b *testing.B)         { runSpec(b, "E16") }
func BenchmarkE17Operators(b *testing.B)    { runSpec(b, "E17") }
func BenchmarkE18CacheZipf(b *testing.B)    { runSpec(b, "E18") }
func BenchmarkE19Parallel(b *testing.B)     { runSpec(b, "E19") }

func BenchmarkAblationStackWindow(b *testing.B) { runSpec(b, "A1") }
func BenchmarkAblationBlockSize(b *testing.B)   { runSpec(b, "A2") }
func BenchmarkAblationResort(b *testing.B)      { runSpec(b, "A3") }
func BenchmarkAblationPlanner(b *testing.B)     { runSpec(b, "A4") }

// ---- fine-grained operator benchmarks -------------------------------

// opEnv is one operator benchmark's session: the operand lists and
// every output live on arena, whose counters pageIO/op reads.
type opEnv struct {
	arena *pager.Arena
	eng   *engine.Engine // a session on arena
	ls    []*plist.List
}

// newOpEnv opens a random forest of n entries and evaluates the
// operand atomics on a fresh session.
func newOpEnv(b *testing.B, n int, atoms ...string) *opEnv {
	b.Helper()
	in := workload.RandomForest(workload.ForestConfig{N: n, Seed: 99})
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	env := &opEnv{arena: pager.NewArena(dir.Disk())}
	env.eng = dir.Engine().Session(env.arena)
	for _, a := range atoms {
		l, err := env.eng.Store().EvalArena(env.arena, query.MustParse(a).(*query.Atomic))
		if err != nil {
			b.Fatal(err)
		}
		env.ls = append(env.ls, l)
	}
	return env
}

func (e *opEnv) run(b *testing.B, fn func() (*plist.List, error)) {
	b.Helper()
	before := e.arena.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if err := out.Free(); err != nil {
			b.Fatal(err)
		}
	}
	io := e.arena.Stats().Sub(before).IO()
	b.ReportMetric(float64(io)/float64(b.N), "pageIO/op")
}

func BenchmarkOpBooleanAnd(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? val<4)")
	e.run(b, func() (*plist.List, error) { return e.eng.EvalBool(query.OpAnd, e.ls[0], e.ls[1]) })
}

func BenchmarkOpHSPCChildren(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? tag=b)")
	e.run(b, func() (*plist.List, error) { return e.eng.ComputeHSPC(query.OpChildren, e.ls[0], e.ls[1]) })
}

func BenchmarkOpHSADAncestors(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? tag=b)")
	e.run(b, func() (*plist.List, error) { return e.eng.ComputeHSAD(query.OpAncestors, e.ls[0], e.ls[1]) })
}

func BenchmarkOpHSADcDescendants(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? tag=b)", "( ? sub ? tag=c)")
	e.run(b, func() (*plist.List, error) {
		return e.eng.ComputeHSADc(query.OpDescendantsC, e.ls[0], e.ls[1], e.ls[2])
	})
}

func BenchmarkOpHSAggMaxCount(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? tag=b)")
	sel, err := query.ParseAggSel("count($2) = max(count($2))")
	if err != nil {
		b.Fatal(err)
	}
	e.run(b, func() (*plist.List, error) {
		return e.eng.ComputeHSAgg(query.OpDescendants, e.ls[0], e.ls[1], nil, sel)
	})
}

func BenchmarkOpSimpleAgg(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? objectClass=node)")
	sel, err := query.ParseAggSel("count(val) > 1")
	if err != nil {
		b.Fatal(err)
	}
	e.run(b, func() (*plist.List, error) { return e.eng.EvalSimpleAgg(e.ls[0], sel) })
}

func BenchmarkOpERDV(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? tag=b)")
	e.run(b, func() (*plist.List, error) {
		return e.eng.ComputeERAggDV(e.ls[0], e.ls[1], "ref", nil)
	})
}

func BenchmarkOpERVD(b *testing.B) {
	e := newOpEnv(b, 3000, "( ? sub ? tag=a)", "( ? sub ? tag=b)")
	e.run(b, func() (*plist.List, error) {
		return e.eng.ComputeERAggVD(e.ls[0], e.ls[1], "ref", nil)
	})
}

func BenchmarkOpNaiveHier(b *testing.B) {
	e := newOpEnv(b, 400, "( ? sub ? tag=a)", "( ? sub ? tag=b)")
	e.run(b, func() (*plist.List, error) {
		return e.eng.NaiveHier(query.OpAncestors, e.ls[0], e.ls[1], nil, nil)
	})
}

func BenchmarkFullQueryL2(b *testing.B) {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 300, Seed: 99})
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse(`(c (dc=com ? sub ? objectClass=TOPSSubscriber)
	                         (dc=com ? sub ? objectClass=QHP)
	                         count($2) >= 3)`)
	sess := dir.Engine().Session(pager.NewArena(dir.Disk()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := sess.Eval(q)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Free(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullQueryL3(b *testing.B) {
	in := workload.GenQoS(workload.QoSConfig{Domains: 2, PoliciesPerDomain: 100, Seed: 99})
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse(`(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
	                          (dc=att, dc=com ? sub ? objectClass=trafficProfile)
	                          SLATPRef
	                          count($2) >= 1)`)
	sess := dir.Engine().Session(pager.NewArena(dir.Disk()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := sess.Eval(q)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Free(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtomicIndexedEval(b *testing.B) {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 500, Seed: 99})
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q := query.MustParse("(dc=com ? sub ? surName=jagadish)").(*query.Atomic)
	st, arena := dir.Engine().Store(), pager.NewArena(dir.Disk())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := st.EvalArena(arena, q)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Free(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseQuery(b *testing.B) {
	text := `(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction)
	            (g (vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
	                   (& (dc=att, dc=com ? sub ? sourcePort=25)
	                      (dc=att, dc=com ? sub ? objectClass=trafficProfile))
	                   SLATPRef)
	               min(SLARulePriority)=min(min(SLARulePriority)))
	            SLADSActRef)`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := query.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpdateEntries is one leaf add — a call appearance under an
// existing subscriber's first QHP — through the copy-on-write write
// path, at two directory sizes (4 325 and 16 955 entries). The write
// touches one root-to-leaf path per tree and keeps no copy of the
// directory, so allocs/op and dirty pages/op are flat in the directory
// size, and ns/op and B/op nearly: each new CANumber is a new distinct
// string value, which goes to the suffix index's unsorted tail and to
// the catalog's corrections, both copied per write and at most an
// eighth of the attribute's values long (1.4x from 500 to 2000
// subscribers, where re-sorting the suffix array per write was 4x).
// About one write in base/8 re-sorts the array; -benchtime=100x sees
// none, 3000x a few.
func BenchmarkUpdateEntries(b *testing.B) {
	for _, subs := range []int{500, 2000} {
		b.Run(fmt.Sprintf("tops%d", subs), func(b *testing.B) {
			dir, err := core.Open(workload.GenTOPS(workload.TOPSConfig{Subscribers: subs, Seed: 1}), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ops := make([]store.EntryOp, b.N)
			for i := range ops {
				dn := model.MustParseDN(fmt.Sprintf(
					"CANumber=555%07d, QHPName=qhp0, uid=sub%04d, ou=userProfiles, dc=research, dc=att, dc=com", i, i%subs))
				e, err := model.NewEntryFromDN(dir.Schema(), dn)
				if err != nil {
					b.Fatal(err)
				}
				ops[i].Add = e.AddClass("callAppearance").Add("priority", model.Int(9))
			}
			dirty := 0
			b.ReportAllocs()
			b.ResetTimer()
			for _, op := range ops {
				if err := dir.UpdateEntries(op); err != nil {
					b.Fatal(err)
				}
				dirty += dir.Disk().DirtyCount()
			}
			b.ReportMetric(float64(dirty)/float64(b.N), "dirty-pages/op")
		})
	}
}

// BenchmarkOpen is core.Open of a generated TOPS directory (4 325 and
// 16 955 entries): validate every entry, write the master list,
// bulk-load the DN and attribute B+trees, build the suffix and vector
// indexes. Beside time and memory it reports what the device is made
// of, in pages: the whole device and each structure on it.
func BenchmarkOpen(b *testing.B) {
	for _, subs := range []int{500, 2000} {
		b.Run(fmt.Sprintf("tops%d", subs), func(b *testing.B) {
			in := workload.GenTOPS(workload.TOPSConfig{Subscribers: subs, Seed: 1})
			var dir *core.Directory
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if dir, err = core.Open(in, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			pc, err := dir.Engine().Store().PageCounts()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(dir.Disk().NumPages()), "device-pages/op")
			b.ReportMetric(float64(pc.Master), "master-pages/op")
			b.ReportMetric(float64(pc.DN), "dn-pages/op")
			b.ReportMetric(float64(pc.Attr), "attr-pages/op")
		})
	}
}

// analyticQueries is dirload's analytic mix (benchmark/dirload,
// workloads.go): every L0–L3 plan operator over the whole forest.
var analyticQueries = []string{
	`( ? sub ? tag=a)`,
	`(- ( ? sub ? tag=a) ( ? sub ? val<2))`,
	`(p ( ? sub ? tag=a) ( ? sub ? tag=b))`,
	`(a ( ? sub ? tag=a) ( ? sub ? tag=b))`,
	`(ac ( ? sub ? tag=a) ( ? sub ? tag=b) ( ? sub ? tag=c))`,
	`(c (& ( ? sub ? tag=a) ( ? sub ? val<5)) (| ( ? sub ? tag=b) ( ? sub ? tag=c)) count($2) > 0)`,
	`(dc (& ( ? sub ? tag=a) ( ? sub ? tag=a)) (d ( ? sub ? tag=b) ( ? sub ? val>=1)) ( ? sub ? tag=c) count($2) >= 1)`,
	`(vd (g ( ? sub ? tag=a) count(ref) >= 1) (d ( ? sub ? tag=b) ( ? sub ? val<6)) ref)`,
	`(dv ( ? sub ? tag=a) ( ? sub ? tag=b) ref count($2) >= 1)`,
	`(& ( ? sub ? tag=a) ( ? sub ? val<5))`,
	`(d ( ? sub ? tag=a) ( ? sub ? tag=b))`,
	`(g ( ? sub ? tag=a) count(ref) >= 1)`,
}

// BenchmarkAnalytic is the in-process analytic row: one op is the whole
// 12-query mix on a random forest of 3 000 entries (seed 1), each query
// evaluated on a fresh session and its result drained to entries, as a
// served query is. Beside time and allocations it reports the mix's
// page I/O split in two: reads of the store's disk (basePages/op) and
// the traffic on the sessions' scratch disks (scratchPages/op).
func BenchmarkAnalytic(b *testing.B) {
	dir, err := core.Open(workload.RandomForest(workload.ForestConfig{N: 3000, Seed: 1}), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]query.Query, len(analyticQueries))
	for i, text := range analyticQueries {
		qs[i] = query.MustParse(text)
	}
	var base, scratch int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			arena := pager.NewArena(dir.Disk())
			l, err := dir.Engine().Session(arena).Eval(q)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := plist.Drain(l); err != nil {
				b.Fatal(err)
			}
			if err := l.Free(); err != nil {
				b.Fatal(err)
			}
			base += arena.Meter().Stats().IO()
			scratch += arena.Scratch().Stats().IO()
		}
	}
	b.ReportMetric(float64(base)/float64(b.N), "basePages/op")
	b.ReportMetric(float64(scratch)/float64(b.N), "scratchPages/op")
}
