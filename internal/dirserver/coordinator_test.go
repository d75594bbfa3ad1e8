package dirserver

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/store"
)

// federation is the paper directory split over two loopback servers:
// upper (everything but the research networkPolicies subtree, zone
// dc=com) and policies (that subtree), both registered in reg. A
// coordinator on upper uses self as its own address.
type federation struct {
	whole, upper *core.Directory
	reg          *Registry
	self         string
	close        func()
}

func newFederation(t *testing.T, opts core.Options) *federation {
	t.Helper()
	whole, upper, policies := splitPaperDirectoryOpts(t, opts)
	upSrv, err := Serve(upper, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	polSrv, err := Serve(policies, "127.0.0.1:0")
	if err != nil {
		upSrv.Close()
		t.Fatal(err)
	}
	reg := &Registry{}
	reg.Register(model.MustParseDN("dc=com"), upSrv.Addr())
	reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), polSrv.Addr())
	return &federation{whole: whole, upper: upper, reg: reg, self: upSrv.Addr(), close: func() {
		polSrv.Close()
		upSrv.Close()
	}}
}

// federatedQueries are local, remote and mixed queries over a
// federation, from one atomic up to L3.
var federatedQueries = []string{
	"(dc=att, dc=com ? sub ? objectClass=*)",
	"(ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)",
	`(| (dc=com ? sub ? objectClass=TOPSSubscriber)
	    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`,
	`(a (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=trafficProfile)
	    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? ou=networkPolicies))`,
	`(vd (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
	     (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? destinationPort=25)
	     SLATPRef)`,
}

func dnsOf(es []*model.Entry) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.DN().String()
	}
	return fmt.Sprint(out)
}

// TestCoordinatorLeavesDirectoryAlone: wrapping a directory in a
// coordinator changes nothing about the directory. A plain Search
// answers the same entries at the same page I/O before and after, the
// coordinator does not count it as one of its local atomics, and
// neither the directory's searches nor the coordinator's — local,
// remote or mixed — write, allocate or free a page of the directory's
// store disk.
func TestCoordinatorLeavesDirectoryAlone(t *testing.T) {
	fed := newFederation(t, core.Options{})
	defer fed.close()
	probe := federatedQueries[0]
	// The first search warms the index pools; the second is the one
	// every later search repeats.
	if _, err := fed.upper.Search(probe); err != nil {
		t.Fatal(err)
	}
	before, err := fed.upper.Search(probe)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(fed.upper, fed.reg, fed.self)
	defer coord.Close()
	after, err := fed.upper.Search(probe)
	if err != nil {
		t.Fatal(err)
	}
	if after.IO != before.IO || fmt.Sprint(after.DNs()) != fmt.Sprint(before.DNs()) {
		t.Fatalf("dir.Search changed under a coordinator: %d entries at %v, then %d at %v",
			len(before.Entries), before.IO, len(after.Entries), after.IO)
	}
	if before.IO.IO() == 0 || len(before.Entries) == 0 {
		t.Fatal("probe answered nothing: the comparison is vacuous")
	}
	if s := coord.Stats(); s.LocalAtomics != 0 {
		t.Fatalf("the coordinator counted dir.Search as %d local atomics", s.LocalAtomics)
	}

	disk := fed.upper.Disk()
	start := disk.Stats()
	for _, q := range federatedQueries {
		if _, err := fed.upper.Search(q); err != nil {
			t.Fatalf("dir.Search %s: %v", q, err)
		}
		if _, err := coord.Search(context.Background(), q); err != nil {
			t.Fatalf("coord.Search %s: %v", q, err)
		}
		if _, _, err := coord.SearchTraced(context.Background(), q); err != nil {
			t.Fatalf("coord.SearchTraced %s: %v", q, err)
		}
	}
	d := disk.Stats().Sub(start)
	if d.Writes != 0 || d.Allocs != 0 || d.Frees != 0 {
		t.Fatalf("searches mutated the published store disk: %v", d)
	}
	if d.Reads == 0 {
		t.Fatal("no search read the store disk: the check is vacuous")
	}
	if s := coord.Stats(); s.LocalAtomics == 0 || s.RemoteAtomics == 0 {
		t.Fatalf("queries did not cover local and remote atomics: %+v", s)
	}
}

// TestCoordinatorFollowsUpdates: a coordinator built before an
// UpdateEntries answers at the directory's new generation.
func TestCoordinatorFollowsUpdates(t *testing.T) {
	fed := newFederation(t, core.Options{})
	defer fed.close()
	coord := NewCoordinator(fed.upper, fed.reg, fed.self)
	defer coord.Close()
	q := federatedQueries[0]
	old, err := coord.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.upper.UpdateEntries(store.EntryOp{Remove: old[len(old)-1].DN()}); err != nil {
		t.Fatal(err)
	}
	want, err := fed.upper.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Gen != 2 || len(want.Entries) != len(old)-1 {
		t.Fatalf("dir.Search after the remove: %d entries at generation %d, want %d at 2", len(want.Entries), want.Gen, len(old)-1)
	}
	if dnsOf(got) != dnsOf(want.Entries) {
		t.Fatalf("coordinator answered %d entries, the directory %d at generation %d", len(got), len(want.Entries), want.Gen)
	}
}

// TestCoordinatorConcurrentSearches: eight goroutines share one
// coordinator, serial and with a parallel engine, and every answer
// equals the one the same query gets alone.
func TestCoordinatorConcurrentSearches(t *testing.T) {
	for _, opts := range []core.Options{{}, {Engine: engine.Config{Workers: 3}}} {
		t.Run(fmt.Sprintf("workers%d", opts.Engine.Workers), func(t *testing.T) {
			fed := newFederation(t, opts)
			defer fed.close()
			coord := NewCoordinator(fed.upper, fed.reg, fed.self)
			defer coord.Close()
			serial := make([]string, len(federatedQueries))
			for i, q := range federatedQueries {
				got, err := coord.Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				serial[i] = dnsOf(got)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 10; round++ {
						i := (g + round) % len(federatedQueries)
						got, err := coord.Search(context.Background(), federatedQueries[i])
						if err != nil {
							t.Errorf("goroutine %d round %d: %v", g, round, err)
							return
						}
						if dnsOf(got) != serial[i] {
							t.Errorf("goroutine %d round %d: %s answered differently under concurrency", g, round, federatedQueries[i])
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
