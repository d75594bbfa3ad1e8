package dirserver

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// BenchmarkCoordinatorSearch times the distributed path end to end:
// E14's TOPS split over two loopback servers — the upper levels and the
// odd subscribers on A, the even subscribers on B, each delegated to it
// by its own registry zone — and E14's three queries (a remote atomic,
// a union of a remote and a local atomic, a hierarchical selection over
// two remote atomics), issued round-robin through one coordinator on A
// by every parallel goroutine.
func BenchmarkCoordinatorSearch(b *testing.B) {
	const subscribers = 100
	whole := workload.GenTOPS(workload.TOPSConfig{Subscribers: subscribers, Seed: 12})
	aIn, bIn := model.NewInstance(whole.Schema()), model.NewInstance(whole.Schema())
	for _, e := range whole.Entries() {
		target := aIn
		for _, rdn := range e.DN() {
			for _, ava := range rdn {
				var idx int
				if model.NormalizeAttr(ava.Attr) == "uid" {
					if _, err := fmt.Sscanf(ava.Value, "sub%d", &idx); err == nil && idx%2 == 0 {
						target = bIn
					}
				}
			}
		}
		target.MustAdd(e.Clone())
	}
	serve := func(in *model.Instance) (*core.Directory, string) {
		dir, err := core.Open(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := Serve(dir, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		return dir, srv.Addr()
	}
	dirA, addrA := serve(aIn)
	_, addrB := serve(bIn)
	var reg Registry
	reg.Register(model.MustParseDN("dc=com"), addrA)
	for i := 0; i < subscribers; i += 2 {
		reg.Register(model.MustParseDN(fmt.Sprintf(
			"uid=sub%04d, ou=userProfiles, dc=research, dc=att, dc=com", i)), addrB)
	}
	coord := NewCoordinator(dirA, &reg, addrA)
	b.Cleanup(func() { coord.Close() })
	queries := []string{
		"(uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)",
		`(| (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=callAppearance)
		    (uid=sub0001, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=callAppearance))`,
		`(c (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=QHP)
		    (uid=sub0000, ou=userProfiles, dc=research, dc=att, dc=com ? sub ? objectClass=callAppearance)
		    count($2) >= 1)`,
	}
	for _, q := range queries {
		if got, err := coord.Search(context.Background(), q); err != nil || len(got) == 0 {
			b.Fatalf("%s: %d entries, %v", q, len(got), err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, err := coord.Search(context.Background(), queries[i%len(queries)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
