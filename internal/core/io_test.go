package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pager"
	"repro/internal/workload"
)

// TestResultIODeterministic: a query's page I/O is a function of the
// query and the snapshot, not of what ran before or beside it. A fixed
// set of L0–L3 queries on one TOPS snapshot (with the paper's policy
// fragment, for the reference join) — base and one-scope lookups,
// index-path atomics, a keys-only witness and a vd — must report the
// same Result.IO cold, after 400 other queries, and while 8 goroutines
// run other queries. The result cache is off, so every search
// evaluates.
func TestResultIODeterministic(t *testing.T) {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 200, Seed: 46})
	workload.Fig12(in)
	dir, err := Open(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const users = "ou=userProfiles, dc=research, dc=att, dc=com"
	fixed := []string{
		"(uid=sub0017, " + users + " ? base ? objectClass=*)",
		"(QHPName=qhp0, uid=sub0150, " + users + " ? base ? objectClass=QHP)",
		"(" + users + " ? one ? uid=sub0042)",
		"(uid=sub0099, " + users + " ? one ? objectClass=QHP)",
		"(dc=com ? sub ? priority=3)",
		"(" + users + " ? sub ? timeOut<15)",
		"(& (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? daysOfWeek=2))",
		"(c (" + users + " ? one ? surName=milo) (dc=com ? sub ? startTime>1000))",
		"(- (dc=com ? sub ? objectClass=callAppearance) (dc=com ? sub ? timeOut>=40))",
		"(vd (dc=com ? sub ? objectClass=SLAPolicyRules) (dc=com ? sub ? DSPermission=Deny) SLADSActRef)",
	}
	var others []string
	for i := 0; i < 200; i++ {
		uid := fmt.Sprintf("sub%04d", (i*37)%200)
		others = append(others,
			"(uid="+uid+", "+users+" ? one ? objectClass=QHP)",
			"("+users+" ? one ? uid="+uid+")",
			fmt.Sprintf("(dc=com ? sub ? priority=%d)", 1+i%4),
			fmt.Sprintf("(d (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? timeOut=%d))", 10+i%50))
	}
	search := func(q string) pager.Stats {
		res, err := dir.Search(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			return pager.Stats{}
		}
		return res.IO
	}
	run := func() []pager.Stats {
		out := make([]pager.Stats, len(fixed))
		for i, q := range fixed {
			out[i] = search(q)
		}
		return out
	}
	check := func(when string, got, cold []pager.Stats) {
		t.Helper()
		for i := range fixed {
			if got[i] != cold[i] {
				t.Errorf("%s: %s read %v, cold %v", when, fixed[i], got[i], cold[i])
			}
		}
	}

	cold := run()
	for i, io := range cold {
		if io.Reads == 0 {
			t.Fatalf("%s reads no pages", fixed[i])
		}
	}
	for _, q := range others[:400] {
		search(q)
	}
	check("after 400 other queries", run(), cold)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := dir.Search(others[i%len(others)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 3; r++ {
		check("beside 8 busy goroutines", run(), cold)
	}
	close(stop)
	wg.Wait()
}
