package dirserver

import (
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/model"
	"repro/internal/obs"
)

// findTagged returns the first span in the tree carrying the given tag
// key (nil if none).
func findTagged(root *obs.Span, key string) *obs.Span {
	var found *obs.Span
	root.Walk(func(s *obs.Span) {
		if found != nil {
			return
		}
		if _, ok := s.TagValue(key); ok {
			found = s
		}
	})
	return found
}

// formatTree renders a span tree for failure messages.
func formatTree(root *obs.Span) string {
	var b strings.Builder
	root.Format(&b)
	return b.String()
}

// TestDistributedTraceMergedTree is the tentpole acceptance check: a
// distributed query issued through a traced Coordinator produces ONE
// merged span tree — the remote server's subtree, recorded in another
// process, grafted under the client-side span that issued the request —
// and the cross-process I/O conservation law holds on it: the total is
// exactly the local pages plus the remote-reported pages.
func TestDistributedTraceMergedTree(t *testing.T) {
	coord, done := federatedPair(t)
	defer done()

	q := `(| (dc=com ? sub ? objectClass=TOPSSubscriber)
	         (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`
	entries, root, err := coord.SearchTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no entries")
	}
	if root == nil {
		t.Fatal("no span tree")
	}
	if err := root.CheckConservation(); err != nil {
		t.Fatalf("merged tree fails conservation: %v\n%s", err, formatTree(root))
	}

	// The (dc=com ? sub ? …) operand's scope covers the policies zone, so
	// it is asked there too: two hops, one per atomic.
	remotes := root.RemoteRoots()
	if len(remotes) != 2 {
		t.Fatalf("remote subtrees = %d, want 2\n%s", len(remotes), formatTree(root))
	}
	localPlusRemote := root.IO
	for _, rr := range remotes {
		if rr.Host == "" {
			t.Fatal("remote root lost its Host boundary marker")
		}
		if rr.ID == 0 {
			t.Fatal("remote root has no span ID: the server did not assign IDs")
		}

		// The remote subtree hangs under the exact span that issued the
		// request, and that span carries the round trip's time split.
		var issuer *obs.Span
		root.Walk(func(s *obs.Span) {
			if v, _ := s.TagValue("replica"); v != "" && s.ID == rr.ParentID {
				issuer = s
			}
		})
		if issuer == nil {
			t.Fatalf("remote root's parent span %d is not a span tagged with the answering replica\n%s", rr.ParentID, formatTree(root))
		}
		for _, tag := range []string{"wire_us", "serve_us", "queue_us"} {
			if _, ok := issuer.TagValue(tag); !ok {
				t.Errorf("issuing span missing %s tag\n%s", tag, formatTree(root))
			}
		}

		// The remote evaluation really did pages on the other process's
		// disk, so a merge that dropped the subtree would change the total.
		if rr.TreeIO().IO() == 0 {
			t.Fatal("remote subtree reports zero I/O: nothing was measured across the wire")
		}
		localPlusRemote = localPlusRemote.Add(rr.TreeIO())
	}

	// Cross-process conservation, the law itself: total = local + Σ
	// remote-reported.
	if total := root.TreeIO(); total != localPlusRemote {
		t.Fatalf("TreeIO %+v != local %+v + remote-reported, %+v together", total, root.IO, localPlusRemote)
	}
}

// proxiedZone builds a topology whose policies zone has exactly one
// replica, reachable only through a fault proxy: no failover target, so
// breaker behavior is observable in isolation.
func proxiedZone(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *faultnet.Proxy) {
	t.Helper()
	_, upper, policies := splitPaperDirectory(t)
	grace := ServerConfig{Grace: 100 * time.Millisecond}
	priSrv, err := ServeWith(policies, "127.0.0.1:0", grace)
	if err != nil {
		t.Fatal(err)
	}
	localSrv, err := ServeWith(upper, "127.0.0.1:0", grace)
	if err != nil {
		priSrv.Close()
		t.Fatal(err)
	}
	proxy, err := faultnet.New(priSrv.Addr())
	if err != nil {
		localSrv.Close()
		priSrv.Close()
		t.Fatal(err)
	}
	var reg Registry
	reg.Register(model.MustParseDN("dc=com"), localSrv.Addr())
	reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), proxy.Addr())
	coord := NewCoordinatorWith(upper, &reg, localSrv.Addr(), cfg)
	t.Cleanup(func() {
		coord.Close()
		proxy.Close()
		localSrv.Close()
		priSrv.Close()
	})
	return coord, proxy
}

// TestProbeCountsAsRetryEverywhere is the regression test for the
// Stats/span disagreement: when a circuit breaker lets a half-open
// probe through and the probe succeeds, the probe is an extra attempt
// the breaker spent re-testing a failed address. It must be counted as
// a retry in Coordinator.Stats() AND in the span's retries annotation —
// the two views previously disagreed (the span said 0, or the stats
// did, depending on who you asked).
func TestProbeCountsAsRetryEverywhere(t *testing.T) {
	coord, proxy := proxiedZone(t, CoordinatorConfig{
		Client: ClientConfig{
			DialTimeout:    250 * time.Millisecond,
			RequestTimeout: 250 * time.Millisecond,
			MaxRetries:     0, // keep client-level retries out of the ledger
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
		},
		Breaker: BreakerConfig{Threshold: 1, Cooldown: 100 * time.Millisecond},
	})

	// Trip the breaker: one refused exchange at threshold 1.
	proxy.SetMode(faultnet.Refuse)
	if _, err := coord.Search(context.Background(), polQuery); err == nil {
		t.Fatal("refused zone answered")
	}
	if s := coord.Stats(); s.BreakerTrips != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", s.BreakerTrips)
	}

	// Heal the path, wait out the cooldown, and send the next traced
	// query: it goes through as the half-open probe.
	proxy.SetMode(faultnet.Pass)
	time.Sleep(150 * time.Millisecond)
	before := coord.Stats()
	entries, root, err := coord.SearchTraced(context.Background(), polQuery)
	if err != nil {
		t.Fatalf("probe query failed: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("probe query returned nothing")
	}
	after := coord.Stats()

	statRetries := after.Retries - before.Retries
	if statRetries != 1 {
		t.Errorf("Stats retries delta = %d, want 1 (the probe)", statRetries)
	}
	issuer := findTagged(root, "replica")
	if issuer == nil {
		t.Fatalf("no replica-tagged span\n%s", formatTree(root))
	}
	tagRetries, ok := issuer.TagValue("retries")
	if !ok {
		t.Fatalf("probe span has no retries tag\n%s", formatTree(root))
	}
	// The regression proper: both ledgers must tell the same story.
	if tagRetries != strconv.FormatInt(statRetries, 10) {
		t.Errorf("span says %s retries, Stats says %d — the two disagree again", tagRetries, statRetries)
	}
	if coord.BreakerState(proxy.Addr()) != "closed" {
		t.Errorf("successful probe left breaker %s", coord.BreakerState(proxy.Addr()))
	}
}

// TestChaosTracedGarbleFailover: a garbled primary forces retries and a
// failover to the healthy secondary — the merged trace must still pass
// cross-process conservation, carry exactly the secondary's subtree,
// and record the retries the garbling cost.
func TestChaosTracedGarbleFailover(t *testing.T) {
	cl := newChaosCluster(t)
	cl.proxy.SetMode(faultnet.Garble)
	want := cl.wantPolicies(t)

	entries, root, err := cl.coord.SearchTraced(context.Background(), polQuery)
	if err != nil {
		t.Fatalf("traced query under garble: %v", err)
	}
	if len(entries) != len(want) {
		t.Fatalf("got %d entries, want %d (silent truncation under garble)", len(entries), len(want))
	}
	if err := root.CheckConservation(); err != nil {
		t.Fatalf("conservation under garble: %v\n%s", err, formatTree(root))
	}
	if n := len(root.RemoteRoots()); n != 1 {
		t.Fatalf("remote subtrees = %d, want 1 (the secondary's)\n%s", n, formatTree(root))
	}
	issuer := findTagged(root, "replica")
	if issuer == nil {
		t.Fatalf("no replica tag\n%s", formatTree(root))
	}
	if v, _ := issuer.TagValue("replica"); v != cl.secSrv.Addr() {
		t.Errorf("answered by %s, want secondary %s", v, cl.secSrv.Addr())
	}
	if _, ok := issuer.TagValue("failover"); !ok {
		t.Error("failover span not annotated")
	}
	if cl.coord.Stats().Retries == 0 {
		t.Error("garbled exchanges cost no recorded retries")
	}
}

// TestChaosTracedLatencySplit: injected network latency must show up in
// the wire share of the round trip's time split, not in the server's
// serve time.
func TestChaosTracedLatencySplit(t *testing.T) {
	cl := newChaosCluster(t)
	const injected = 50 * time.Millisecond
	cl.proxy.SetLatency(injected)

	_, root, err := cl.coord.SearchTraced(context.Background(), polQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.CheckConservation(); err != nil {
		t.Fatalf("conservation under latency: %v", err)
	}
	issuer := findTagged(root, "wire_us")
	if issuer == nil {
		t.Fatalf("no wire_us tag\n%s", formatTree(root))
	}
	wire, _ := issuer.TagValue("wire_us")
	wireUS, err := strconv.ParseInt(wire, 10, 64)
	if err != nil {
		t.Fatalf("wire_us = %q: %v", wire, err)
	}
	// The injected delay rides the wire share (allow scheduling slack).
	if min := (injected - 10*time.Millisecond).Microseconds(); wireUS < min {
		t.Errorf("wire_us = %d, want >= %d with %v injected", wireUS, min, injected)
	}
	serve, _ := issuer.TagValue("serve_us")
	serveUS, err := strconv.ParseInt(serve, 10, 64)
	if err != nil {
		t.Fatalf("serve_us = %q: %v", serve, err)
	}
	if serveUS >= wireUS {
		t.Errorf("serve_us %d >= wire_us %d: injected latency leaked into the serve share", serveUS, wireUS)
	}
}

// TestChaosTracedLostReply: when the only replica black-holes the reply,
// the evaluation fails — but the span tree recorded up to the loss must
// still be returned, well-formed, with no phantom remote subtree.
func TestChaosTracedLostReply(t *testing.T) {
	coord, proxy := proxiedZone(t, CoordinatorConfig{
		Client: ClientConfig{
			DialTimeout:    250 * time.Millisecond,
			RequestTimeout: 150 * time.Millisecond,
			MaxRetries:     0,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
		},
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 150 * time.Millisecond},
	})
	proxy.SetMode(faultnet.BlackHole)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	entries, root, err := coord.SearchTraced(ctx, polQuery)
	if err == nil {
		t.Fatalf("black-holed zone answered with %d entries", len(entries))
	}
	if root == nil {
		t.Fatal("failed evaluation returned no span tree at all")
	}
	if root.Err == "" {
		t.Errorf("root span of a failed evaluation has no error\n%s", formatTree(root))
	}
	if err := root.CheckConservation(); err != nil {
		t.Errorf("partial tree is not well-formed: %v\n%s", err, formatTree(root))
	}
	if n := len(root.RemoteRoots()); n != 0 {
		t.Errorf("lost reply produced %d phantom remote subtrees\n%s", n, formatTree(root))
	}
}
