package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apps/qos"
	"repro/internal/apps/tops"
	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/engine"
	"repro/internal/extsort"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/workload"
)

// E14Distributed verifies the Section 8.3 strategy: splitting the
// namespace across servers and shipping atomic sub-queries yields the
// same answers as centralized evaluation, and only atomic results cross
// the wire.
func E14Distributed(subscribers []int) *Table {
	t := &Table{
		ID:     "E14",
		Title:  "Distributed evaluation across namespace-partitioned servers",
		Claim:  "Section 8.3: atomics shipped to owning servers, results merged centrally",
		Header: []string{"subscribers", "servers", "remote atomics", "entries shipped", "answers equal"},
	}
	for _, n := range subscribers {
		whole := workload.GenTOPS(workload.TOPSConfig{Subscribers: n, Seed: 12})
		s := whole.Schema()
		// Partition: subscribers with even index on server B, the rest
		// (upper levels + odd subscribers) on server A.
		aIn, bIn := model.NewInstance(s), model.NewInstance(s)
		for _, e := range whole.Entries() {
			target := aIn
			for _, rdn := range e.DN() {
				for _, ava := range rdn {
					if model.NormalizeAttr(ava.Attr) == "uid" && len(ava.Value) > 3 {
						var idx int
						fmt.Sscanf(ava.Value, "sub%d", &idx)
						if idx%2 == 0 {
							target = bIn
						}
					}
				}
			}
			target.MustAdd(e.Clone())
		}
		dirWhole, err := core.Open(whole, core.Options{})
		if err != nil {
			panic(err)
		}
		dirA, err := core.Open(aIn, core.Options{})
		if err != nil {
			panic(err)
		}
		dirB, err := core.Open(bIn, core.Options{})
		if err != nil {
			panic(err)
		}
		srvA, err := dirserver.Serve(dirA, "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		srvB, err := dirserver.Serve(dirB, "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		var reg dirserver.Registry
		reg.Register(model.MustParseDN("dc=com"), srvA.Addr())
		// Even subscribers are delegated individually — the DNS-style
		// subdomain split of Section 3.3.
		shipped := 0
		for i := 0; i < n; i += 2 {
			reg.Register(model.MustParseDN(fmt.Sprintf(
				"uid=sub%04d, ou=userProfiles, dc=research, dc=att, dc=com", i)), srvB.Addr())
		}
		coord := dirserver.NewCoordinator(dirA, &reg, srvA.Addr())
		queries := []string{
			fmt.Sprintf("(uid=sub%04d, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)", 0),
			fmt.Sprintf(`(| (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=callAppearance)
			               (uid=sub0001, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=callAppearance))`),
			fmt.Sprintf(`(c (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)
			                (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=callAppearance)
			                count($2) >= 1)`),
		}
		equal := true
		for _, qs := range queries {
			want, err := dirWhole.Search(qs)
			if err != nil {
				panic(err)
			}
			got, err := coord.Search(context.Background(), qs)
			if err != nil {
				panic(err)
			}
			if len(got) != len(want.Entries) {
				equal = false
				continue
			}
			for i := range got {
				if !got[i].DN().Equal(want.Entries[i].DN()) {
					equal = false
				}
			}
			shipped += len(got)
		}
		t.AddRow(n, 2, coord.RemoteAtomics(), shipped, equal)
		_ = coord.Close()
		_ = srvA.Close()
		_ = srvB.Close()
	}
	return t
}

// E15AtomicIndex compares index-supported atomic evaluation against
// scope scans (the Section 4.1 assumption that atomic queries are
// efficiently index-supported).
func E15AtomicIndex(n int) *Table {
	t := &Table{
		ID:     "E15",
		Title:  "Atomic query evaluation: cost-based index/scan choice vs forced scans",
		Claim:  "Section 4.1: B+tree for int/dn filters, trie/suffix indexes for strings",
		Header: []string{"filter", "|answer|", "IO chosen plan", "IO forced scan", "ratio"},
	}
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: n, Seed: 13})
	env := openEnv(in, 0)
	stScan := unindexedStore(in, 0)
	cases := []string{
		"(dc=com ? sub ? surName=jagadish)",
		"(dc=com ? sub ? surName=*adi*)",
		"(dc=com ? sub ? surName=jag*)",
		"(dc=com ? sub ? priority<=1)",
		"(dc=com ? sub ? CANumber=*)",
		"(dc=com ? sub ? objectClass=TOPSSubscriber)",
	}
	for _, qs := range cases {
		q := query.MustParse(qs).(*query.Atomic)
		var out *plist.List
		ioIdx := env.MeasureIO(func() error {
			var e error
			out, e = env.Eng.Store().EvalArena(env.Arena, q)
			return e
		})
		count := out.Count()
		freeLists(out)
		scan := pager.NewArena(stScan.Disk())
		out, err := stScan.EvalArena(scan, q)
		if err != nil {
			panic(err)
		}
		ioScan := scan.Stats().IO()
		freeLists(out)
		t.AddRow(q.Filter.String(), count, ioIdx, ioScan, float64(ioScan)/float64(ioIdx))
	}
	t.Notes = append(t.Notes, fmt.Sprintf("directory: %d entries, %d master pages", env.Dir.Count(), env.Eng.Store().MasterPages()))
	t.Notes = append(t.Notes,
		"the store picks index or scan per filter from its catalog statistics; ratio 1.00 means it correctly chose the scan")
	return t
}

// E16Apps measures the two motivating applications end to end:
// QoS enforcement lookups (Example 2.1) and TOPS call routing
// (Example 2.2).
func E16Apps(scale int) *Table {
	t := &Table{
		ID:     "E16",
		Title:  "DEN applications end-to-end",
		Claim:  "Examples 2.1 and 2.2 running on the directory",
		Header: []string{"app", "directory entries", "lookups", "avg IO/lookup", "avg latency"},
	}
	// QoS.
	qin := workload.GenQoS(workload.QoSConfig{Domains: 2, PoliciesPerDomain: scale, Seed: 14})
	qdir, err := core.Open(qin, core.Options{})
	if err != nil {
		panic(err)
	}
	lookups := 50
	before := qdir.Disk().Stats()
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		_, err := qos.Match(qdir, "dc=dom0, dc=att, dc=com", qos.Packet{
			SourceAddress:   fmt.Sprintf("204.%d.%d.9", i%32, (i*7)%32),
			SourcePort:      25,
			DestinationPort: 80,
			Time:            19980615120000,
			DayOfWeek:       int64(1 + i%7),
		})
		if err != nil {
			panic(err)
		}
	}
	qIO := qdir.Disk().Stats().Sub(before).IO()
	qDur := time.Since(t0)
	t.AddRow("QoS Match", qin.Len(), lookups, float64(qIO)/float64(lookups),
		(qDur / time.Duration(lookups)).Round(time.Microsecond).String())

	// TOPS.
	tin := workload.GenTOPS(workload.TOPSConfig{Subscribers: scale, Seed: 15})
	tdir, err := core.Open(tin, core.Options{})
	if err != nil {
		panic(err)
	}
	before = tdir.Disk().Stats()
	t0 = time.Now()
	routed := 0
	for i := 0; i < lookups; i++ {
		_, err := tops.Lookup(tdir, "ou=userProfiles, dc=research, dc=att, dc=com", tops.Call{
			CalleeUID: fmt.Sprintf("sub%04d", i%scale),
			Time:      900 + int64(i)%600,
			DayOfWeek: int64(1 + i%7),
		})
		if err == nil {
			routed++
		}
	}
	tIO := tdir.Disk().Stats().Sub(before).IO()
	tDur := time.Since(t0)
	t.AddRow("TOPS Lookup", tin.Len(), lookups, float64(tIO)/float64(lookups),
		(tDur / time.Duration(lookups)).Round(time.Microsecond).String())
	t.Notes = append(t.Notes, fmt.Sprintf("TOPS: %d/%d calls routed (others hit no matching QHP)", routed, lookups))
	return t
}

// AblationStackWindow sweeps the stack's resident window: the
// constant-memory claim of Theorem 8.3 — any constant window keeps the
// algorithm linear; smaller windows pay more spill I/O.
func AblationStackWindow(n int, windows []int) *Table {
	t := &Table{
		ID:     "A1",
		Title:  "Ablation: stack resident window",
		Claim:  "Theorem 5.1/8.3 proof: stack swap-out I/O stays linear for any constant window",
		Header: []string{"window pages", "IO(d)", "result size"},
	}
	// A deep chain drives the stack past any small window: entry i is the
	// child of entry i-1, so the stack holds the whole path. Depth is
	// capped so reverse-DN keys stay within the index's item bound.
	if n > 120 {
		n = 120
	}
	in := model.NewInstance(workload.ForestSchema())
	dn := model.DN{}
	for i := 0; i < n; i++ {
		dn = dn.Child(model.RDN{{Attr: "n", Value: fmt.Sprintf("c%d", i)}})
		e, err := model.NewEntryFromDN(in.Schema(), dn)
		if err != nil {
			panic(err)
		}
		e.AddClass("node")
		e.Add("tag", model.String(string(rune('a'+i%2))))
		in.MustAdd(e)
	}
	for _, w := range windows {
		dir, err := core.Open(in, core.Options{Engine: engine.Config{StackWindow: w}})
		if err != nil {
			panic(err)
		}
		env := newEnv(dir)
		ls := env.Lists("( ? sub ? tag=a)", "( ? sub ? tag=b)")
		var out *plist.List
		io := env.MeasureIO(func() error {
			var e error
			out, e = env.Eng.ComputeHSAD(query.OpDescendants, ls[0], ls[1])
			return e
		})
		t.AddRow(w, io, out.Count())
		freeLists(out)
		freeLists(ls...)
	}
	return t
}

// AblationBlockSize sweeps the page size: the theorems' bounds are
// |L|/B, so doubling the blocking factor should roughly halve the I/O.
func AblationBlockSize(n int, pageSizes []int) *Table {
	t := &Table{
		ID:     "A2",
		Title:  "Ablation: blocking factor B (page size)",
		Claim:  "all bounds are O(|L|/B): I/O scales inversely with page size",
		Header: []string{"page size", "in pages", "IO(a)", "IO * pageSize"},
	}
	for _, ps := range pageSizes {
		env := ForestEnv(n, 17, ps)
		ls := env.Lists("( ? sub ? tag=a)", "( ? sub ? tag=b)")
		var out *plist.List
		io := env.MeasureIO(func() error {
			var e error
			out, e = env.Eng.ComputeHSAD(query.OpAncestors, ls[0], ls[1])
			return e
		})
		t.AddRow(ps, pagesOf(ls...), io, io*int64(ps))
		freeLists(out)
		freeLists(ls...)
	}
	t.Notes = append(t.Notes, "the IO * pageSize column (bytes moved) should stay roughly constant")
	return t
}

// AblationResort measures the sorted-invariant payoff of Section 8.2:
// because every operator emits reverse-key order, no intermediate sort
// is needed; forcing a re-sort after each operand shows what the
// invariant saves.
func AblationResort(n int) *Table {
	t := &Table{
		ID:     "A3",
		Title:  "Ablation: sorted-output invariant vs re-sorting operands",
		Claim:  "Section 8.2: \"no additional sorting of the result of an intermediate operator is necessary\"",
		Header: []string{"N", "IO pipelined", "IO with forced re-sorts", "overhead"},
	}
	env := ForestEnv(n, 18, 0)
	ls := env.Lists("( ? sub ? tag=a)", "( ? sub ? tag=b)", "( ? sub ? val<5)")
	// Pipelined: (a (& L1 L3) L2).
	var inter, out *plist.List
	ioPipe := env.MeasureIO(func() error {
		var e error
		inter, e = env.Eng.EvalBool(query.OpAnd, ls[0], ls[2])
		if e != nil {
			return e
		}
		out, e = env.Eng.ComputeHSAD(query.OpAncestors, inter, ls[1])
		return e
	})
	freeLists(inter, out)
	// Re-sorting variant: externally sort each intermediate before use,
	// as an engine without the invariant would.
	ioSort := env.MeasureIO(func() error {
		var e error
		inter, e = env.Eng.EvalBool(query.OpAnd, ls[0], ls[2])
		if e != nil {
			return e
		}
		sorted, e := extsort.Sort(env.Arena.Scratch(), inter.Reader(), extsort.Config{})
		if e != nil {
			return e
		}
		_ = inter.Free()
		out, e = env.Eng.ComputeHSAD(query.OpAncestors, sorted, ls[1])
		if e != nil {
			return e
		}
		return sorted.Free()
	})
	freeLists(out)
	freeLists(ls...)
	t.AddRow(n, ioPipe, ioSort, float64(ioSort)/float64(ioPipe))
	return t
}
