package dirserver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/model"
)

// fastCoordConfig shrinks every timeout so chaos scenarios resolve in
// tens of milliseconds instead of seconds.
func fastCoordConfig() CoordinatorConfig {
	return CoordinatorConfig{
		Client: ClientConfig{
			DialTimeout:    250 * time.Millisecond,
			RequestTimeout: 250 * time.Millisecond,
			MaxRetries:     1,
			BackoffBase:    5 * time.Millisecond,
			BackoffMax:     20 * time.Millisecond,
		},
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 150 * time.Millisecond},
	}
}

// chaosCluster is the standing chaos topology: the policies subtree's
// primary replica sits behind a fault-injecting proxy, with a healthy
// secondary replica beside it.
type chaosCluster struct {
	whole    *core.Directory // centralized oracle
	coord    *Coordinator
	proxy    *faultnet.Proxy
	localSrv *Server
	priSrv   *Server // behind proxy
	secSrv   *Server

	closeOnce sync.Once
}

// shutdown tears the whole topology down; safe to call more than once
// (leak-checking tests call it explicitly before counting goroutines,
// and t.Cleanup calls it again).
func (cl *chaosCluster) shutdown() {
	cl.closeOnce.Do(func() {
		_ = cl.coord.Close()
		_ = cl.proxy.Close()
		_ = cl.localSrv.Close()
		_ = cl.priSrv.Close()
		_ = cl.secSrv.Close()
	})
}

const polQuery = "(ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"

func newChaosCluster(t *testing.T) *chaosCluster {
	t.Helper()
	whole, upper, policies := splitPaperDirectory(t)
	grace := ServerConfig{Grace: 100 * time.Millisecond}

	priSrv, err := ServeWith(policies, "127.0.0.1:0", grace)
	if err != nil {
		t.Fatal(err)
	}
	// Same subtree content, second replica process.
	all, err := policies.Search("( ? sub ? objectClass=*)")
	if err != nil {
		t.Fatal(err)
	}
	secIn, err := all.AsInstance(policies.Schema())
	if err != nil {
		t.Fatal(err)
	}
	secDir, err := core.Open(secIn, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	secSrv, err := ServeWith(secDir, "127.0.0.1:0", grace)
	if err != nil {
		t.Fatal(err)
	}
	localSrv, err := ServeWith(upper, "127.0.0.1:0", grace)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := faultnet.New(priSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	var reg Registry
	reg.Register(model.MustParseDN("dc=com"), localSrv.Addr())
	reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"),
		proxy.Addr(), secSrv.Addr()) // faulty primary, healthy secondary

	cl := &chaosCluster{
		whole:    whole,
		coord:    NewCoordinatorWith(upper, &reg, localSrv.Addr(), fastCoordConfig()),
		proxy:    proxy,
		localSrv: localSrv,
		priSrv:   priSrv,
		secSrv:   secSrv,
	}
	t.Cleanup(cl.shutdown)
	return cl
}

// wantPolicies returns the centralized answer for polQuery.
func (cl *chaosCluster) wantPolicies(t *testing.T) []string {
	t.Helper()
	res, err := cl.whole.Search(polQuery)
	if err != nil {
		t.Fatal(err)
	}
	return res.DNs()
}

// assertCorrect runs polQuery through the coordinator and requires the
// exact centralized answer in the exact (sorted) order — failover must
// never truncate or reorder.
func (cl *chaosCluster) assertCorrect(t *testing.T, ctx context.Context) {
	t.Helper()
	want := cl.wantPolicies(t)
	got, err := cl.coord.Search(ctx, polQuery)
	if err != nil {
		t.Fatalf("distributed query failed under fault %v: %v", cl.proxy.Mode(), err)
	}
	if len(got) != len(want) {
		t.Fatalf("fault %v: got %d entries, want %d (silent truncation?)", cl.proxy.Mode(), len(got), len(want))
	}
	for i := range got {
		if got[i].DN().String() != want[i] {
			t.Fatalf("fault %v: entry %d = %s, want %s", cl.proxy.Mode(), i, got[i].DN(), want[i])
		}
	}
}

// checkGoroutines asserts the goroutine count settles back to the
// baseline (plus slack for runtime background goroutines).
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Errorf("goroutine leak: %d before, %d after\n%s", before, n, buf[:runtime.Stack(buf, true)])
}

func TestChaosPartitionFailsOver(t *testing.T) {
	before := runtime.NumGoroutine()
	cl := newChaosCluster(t)
	// Healthy first: primary (through the proxy) answers.
	cl.assertCorrect(t, context.Background())
	if got := cl.coord.Stats().Failovers; got != 0 {
		t.Fatalf("failovers before any fault: %d", got)
	}

	// Black-hole partition: dial succeeds, nothing ever answers. The
	// request deadline must expire and the secondary must serve the
	// exact centralized answer.
	cl.proxy.SetMode(faultnet.BlackHole)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cl.assertCorrect(t, ctx)
	if cl.coord.Stats().Failovers == 0 {
		t.Error("partitioned primary did not fail over to the secondary")
	}

	cl.shutdown()
	checkGoroutines(t, before)
}

func TestChaosRefuseFailsOver(t *testing.T) {
	cl := newChaosCluster(t)
	cl.proxy.SetMode(faultnet.Refuse)
	cl.assertCorrect(t, context.Background())
	if cl.coord.Stats().Failovers == 0 {
		t.Error("refused primary did not fail over")
	}
}

// TestChaosZoneDownIsUnavailable: with every replica of a zone
// refusing connections, a query that needs the zone fails with the
// typed ErrUnavailable rather than an answer or a hang.
func TestChaosZoneDownIsUnavailable(t *testing.T) {
	cl := newChaosCluster(t)
	cl.proxy.SetMode(faultnet.Refuse)
	_ = cl.secSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if got, err := cl.coord.Search(ctx, polQuery); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("zone down: %d entries, err %v; want ErrUnavailable", len(got), err)
	}
}

func TestChaosMidStreamResetFailsOver(t *testing.T) {
	cl := newChaosCluster(t)
	// Forward only the first 32 response bytes, then RST: the client
	// sees a truncated JSON response, which must never surface as a
	// short answer.
	cl.proxy.SetResetAfter(32)
	cl.proxy.SetMode(faultnet.Reset)
	cl.assertCorrect(t, context.Background())
	if cl.coord.Stats().Failovers == 0 {
		t.Error("mid-stream reset did not fail over")
	}
}

func TestChaosGarbledResponseFailsOver(t *testing.T) {
	cl := newChaosCluster(t)
	cl.proxy.SetMode(faultnet.Garble)
	cl.assertCorrect(t, context.Background())
	if cl.coord.Stats().Failovers == 0 {
		t.Error("garbled response did not fail over")
	}
}

func TestChaosLatency(t *testing.T) {
	cl := newChaosCluster(t)
	// Tolerable latency: still served (by the slow primary or, if a
	// deadline fires, the secondary) with the exact answer.
	cl.proxy.SetLatency(50 * time.Millisecond)
	cl.assertCorrect(t, context.Background())

	// Latency beyond the request timeout: the deadline must fire and
	// the secondary must take over.
	cl.proxy.SetLatency(600 * time.Millisecond)
	cl.assertCorrect(t, context.Background())
	if cl.coord.Stats().Failovers == 0 {
		t.Error("slow primary beyond the request deadline did not fail over")
	}
}

func TestChaosAllReplicasDownDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		_, upper, policies := splitPaperDirectory(t)
		grace := ServerConfig{Grace: 100 * time.Millisecond}
		priSrv, err := ServeWith(policies, "127.0.0.1:0", grace)
		if err != nil {
			t.Fatal(err)
		}
		defer priSrv.Close()
		localSrv, err := ServeWith(upper, "127.0.0.1:0", grace)
		if err != nil {
			t.Fatal(err)
		}
		defer localSrv.Close()
		proxy, err := faultnet.New(priSrv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer proxy.Close()
		proxy.SetMode(faultnet.BlackHole)

		var reg Registry
		reg.Register(model.MustParseDN("dc=com"), localSrv.Addr())
		// The only replica is the partitioned one.
		reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), proxy.Addr())

		coord := NewCoordinatorWith(upper, &reg, localSrv.Addr(), fastCoordConfig())
		defer coord.Close()

		timeout := 400 * time.Millisecond
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		start := time.Now()
		_, err = coord.Search(ctx, polQuery)
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("query with every replica partitioned succeeded")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("want a context-deadline error, got: %v", err)
		}
		if elapsed > timeout+500*time.Millisecond {
			t.Errorf("query hung %v past its %v deadline", elapsed-timeout, timeout)
		}
	}()
	checkGoroutines(t, before)
}

func TestChaosBreakerTripsAndRecovers(t *testing.T) {
	cl := newChaosCluster(t)
	primary := cl.proxy.Addr()

	// Fail enough consecutive queries to trip the primary's breaker
	// (threshold 2, one retry per call).
	cl.proxy.SetMode(faultnet.Refuse)
	cl.assertCorrect(t, context.Background())
	cl.assertCorrect(t, context.Background())
	st := cl.coord.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if got := cl.coord.BreakerState(primary); got != "open" {
		t.Fatalf("primary breaker state = %s, want open", got)
	}

	// While open, queries must skip the primary entirely: correct
	// answers from the secondary with zero new dials at the proxy.
	dialsBefore := cl.proxy.Accepted()
	cl.assertCorrect(t, context.Background())
	cl.assertCorrect(t, context.Background())
	if got := cl.proxy.Accepted(); got != dialsBefore {
		t.Errorf("tripped primary still dialed: %d new connections", got-dialsBefore)
	}
	if cl.coord.Stats().BreakerSkips == 0 {
		t.Error("no breaker skips recorded while the primary was open")
	}

	// Heal the network, wait out the cooldown: the half-open probe
	// must succeed and close the breaker.
	cl.proxy.SetMode(faultnet.Pass)
	time.Sleep(200 * time.Millisecond) // > Cooldown
	cl.assertCorrect(t, context.Background())
	if got := cl.coord.BreakerState(primary); got != "closed" {
		t.Errorf("primary breaker state after recovery = %s, want closed", got)
	}
	if got := cl.proxy.Accepted(); got == dialsBefore {
		t.Error("recovered primary was never probed")
	}
}

// TestChaosConcurrentSearches issues many concurrent Coordinator
// searches (run under -race) while the primary's network flaps between
// healthy and refusing: every query must still return the exact
// centralized answer via primary or secondary.
func TestChaosConcurrentSearches(t *testing.T) {
	cl := newChaosCluster(t)
	want := cl.wantPolicies(t)
	localQuery := "(dc=com ? sub ? objectClass=TOPSSubscriber)"
	wantLocal, err := cl.whole.Search(localQuery)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (g+i)%2 == 0 {
					got, err := cl.coord.Search(context.Background(), polQuery)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d round %d: %v", g, i, err)
						return
					}
					if len(got) != len(want) {
						errc <- fmt.Errorf("goroutine %d round %d: %d entries, want %d", g, i, len(got), len(want))
						return
					}
				} else {
					got, err := cl.coord.Search(context.Background(), localQuery)
					if err != nil {
						errc <- fmt.Errorf("goroutine %d round %d (local): %v", g, i, err)
						return
					}
					if len(got) != len(wantLocal.Entries) {
						errc <- fmt.Errorf("goroutine %d round %d (local): %d entries, want %d",
							g, i, len(got), len(wantLocal.Entries))
						return
					}
				}
				// Concurrent stats reads must be race-free too.
				_ = cl.coord.Stats()
			}
		}(g)
	}
	// Flap the primary's network while the queries run.
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for i := 0; i < 6; i++ {
			if i%2 == 0 {
				cl.proxy.SetMode(faultnet.Refuse)
			} else {
				cl.proxy.SetMode(faultnet.Pass)
			}
			time.Sleep(15 * time.Millisecond)
		}
		cl.proxy.SetMode(faultnet.Pass)
	}()
	wg.Wait()
	<-flapDone
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestChaosEveryLanguageLevel drives one query per language level
// (L0–L3) through a partitioned primary: each must return the exact
// centralized answer via the secondary.
func TestChaosEveryLanguageLevel(t *testing.T) {
	cl := newChaosCluster(t)
	cl.proxy.SetMode(faultnet.BlackHole)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	queries := []string{
		// L0: boolean over two remote atomics.
		`(| (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`,
		// L1: hierarchical ancestors across the partition.
		`(a (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=trafficProfile)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? ou=networkPolicies))`,
		// L2: aggregation over a remote atomic.
		`(g (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		    count(SLAPVPRef) > 1)`,
		// L3: DN-valued dereference, both sides remote.
		`(vd (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		     (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? destinationPort=25)
		     SLATPRef)`,
	}
	for _, qs := range queries {
		want, err := cl.whole.Search(qs)
		if err != nil {
			t.Fatalf("central %s: %v", qs, err)
		}
		got, err := cl.coord.Search(ctx, qs)
		if err != nil {
			t.Fatalf("distributed under partition %s: %v", qs, err)
		}
		if len(got) != len(want.Entries) {
			t.Fatalf("%s: %d entries under partition, want %d", qs, len(got), len(want.Entries))
		}
		for i := range got {
			if !got[i].DN().Equal(want.Entries[i].DN()) {
				t.Fatalf("%s: entry %d = %s, want %s", qs, i, got[i].DN(), want.Entries[i].DN())
			}
		}
	}
}
