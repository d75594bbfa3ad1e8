package dirserver

import (
	"context"
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestServedBudgetBoundsEveryQuery pins the wire budget end to end. A
// request line carrying budget_ms: 1 and a whole-forest dc query (the
// analytic workload's, ~15 ms of evaluation) fails with a context
// deadline whether or not the server traces it: tracing changes what is
// recorded, not which deadline applies. And the untraced client path
// forwards its remaining time as budget_ms: the context's deadline, or
// RequestTimeout when that is sooner or the context has none.
func TestServedBudgetBoundsEveryQuery(t *testing.T) {
	const dc = `(dc (& ( ? sub ? tag=a) ( ? sub ? tag=a)) (d ( ? sub ? tag=b) ( ? sub ? val>=1)) ( ? sub ? tag=c) count($2) >= 1)`
	dir, err := core.Open(workload.RandomForest(workload.ForestConfig{N: 3000, Seed: 1}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(request{Kind: "query", Query: dc, BudgetMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  ServerConfig
	}{
		{name: "untraced"},
		{name: "flight", cfg: ServerConfig{Flight: obs.NewFlightRecorder(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := ServeWith(dir, "127.0.0.1:0", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			if _, err := conn.Write(append(line, '\n')); err != nil {
				t.Fatal(err)
			}
			res := readFrame(t, conn, dir.Schema())
			if !strings.Contains(res.Err, "context deadline") {
				t.Fatalf("budget_ms 1: err %q with %d entries, want a context deadline error", res.Err, len(res.entries))
			}
		})
	}

	t.Run("client-sends-budget", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		got := make(chan request, 2)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				var req request
				if json.NewDecoder(conn).Decode(&req) == nil {
					got <- req
					_, _ = conn.Write(frameOf(response{Gen: 1}))
				}
				conn.Close()
			}
		}()
		const q = "(dc=com ? sub ? objectClass=*)"
		cl := NewClient(model.DefaultSchema(), ClientConfig{MaxRetries: -1, MaxIdlePerAddr: -1})
		defer cl.Close()
		const budget = 5 * time.Second
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		defer cancel()
		if _, _, err := cl.CallWithGen(ctx, ln.Addr().String(), "atomic", q); err != nil {
			t.Fatal(err)
		}
		if req := <-got; req.BudgetMS <= 0 || req.BudgetMS > budget.Milliseconds() {
			t.Fatalf("CallWithGen under a %v deadline sent budget_ms %d", budget, req.BudgetMS)
		}

		// No deadline on the context: RequestTimeout is the budget.
		const timeout = 50 * time.Millisecond
		short := NewClient(model.DefaultSchema(), ClientConfig{MaxRetries: -1, MaxIdlePerAddr: -1, RequestTimeout: timeout})
		defer short.Close()
		if _, err := short.Call(context.Background(), ln.Addr().String(), "atomic", q); err != nil {
			t.Fatal(err)
		}
		if req := <-got; req.BudgetMS <= 0 || req.BudgetMS > timeout.Milliseconds() {
			t.Fatalf("Call under context.Background and RequestTimeout %v sent budget_ms %d", timeout, req.BudgetMS)
		}
	})
}

// TestCoordinatorHopsCarryTraceAndBudget records what a Coordinator
// sends a replica. Every remote hop of one traced search carries the
// same fresh trace ID, a second traced search gets another, and an
// untraced search sends none; each hop made under a deadline carries
// its budget.
func TestCoordinatorHopsCarryTraceAndBudget(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hops := make(chan request, 16)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec := json.NewDecoder(conn)
				for {
					var req request
					if dec.Decode(&req) != nil {
						return
					}
					hops <- req
					if _, err := conn.Write(frameOf(response{Gen: 1})); err != nil {
						return
					}
				}
			}()
		}
	}()
	dir, err := core.Open(workload.PaperInstance(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var reg Registry
	reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), ln.Addr().String())
	coord := NewCoordinator(dir, &reg, "")
	defer coord.Close()
	const q = `(| (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction)
	              (ou=networkPolicies, dc=research, dc=att, dc=com ? one ? objectClass=*))`
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	search := func(traced bool) [2]request {
		var err error
		if traced {
			_, _, err = coord.SearchTraced(ctx, q)
		} else {
			_, err = coord.Search(ctx, q)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := [2]request{<-hops, <-hops}
		for _, h := range got {
			if h.BudgetMS <= 0 {
				t.Fatalf("hop %s sent no budget under a deadline", h.Query)
			}
		}
		return got
	}
	first, second := search(true), search(true)
	if first[0].Trace == "" || first[0].Trace != first[1].Trace {
		t.Fatalf("one traced search sent trace IDs %q and %q, want one non-empty ID", first[0].Trace, first[1].Trace)
	}
	if second[0].Trace != second[1].Trace || second[0].Trace == first[0].Trace {
		t.Fatalf("second traced search sent %q and %q after %q, want a fresh shared ID", second[0].Trace, second[1].Trace, first[0].Trace)
	}
	if plain := search(false); plain[0].Trace != "" || plain[1].Trace != "" {
		t.Fatalf("untraced search sent trace IDs %q and %q", plain[0].Trace, plain[1].Trace)
	}
}

// TestFlightRecordsEveryReadKind sends each read kind to a server with
// a flight recorder, well-formed and not. Every request is retained: a
// rejected one under its raw text with its error and no span tree, an
// answered one under its parsed text with its span tree and a hash of
// the reply.
func TestFlightRecordsEveryReadKind(t *testing.T) {
	dir, err := core.Open(workload.PaperInstance(), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlightRecorder(16)
	srv, err := ServeWith(dir, "127.0.0.1:0", ServerConfig{Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := NewClient(dir.Schema(), ClientConfig{})
	defer cl.Close()
	reqs := []struct {
		kind, text string
		ok         bool
	}{
		{"query", "(dc=com ? sub ? objectClass=QHP)", true},
		{"atomic", "(dc=com ? sub ? objectClass=QHP)", true},
		{"ldap", "(dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))", true},
		{"query", "(((", false},
		{"atomic", "(& (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? objectClass=QHP))", false},
		{"ldap", "(dc=com ? sub", false},
	}
	for _, r := range reqs {
		if _, err := cl.Call(context.Background(), srv.Addr(), r.kind, r.text); (err == nil) != r.ok {
			t.Fatalf("%s %s: err %v", r.kind, r.text, err)
		}
	}
	recs := flight.Snapshot() // newest first
	if len(recs) != len(reqs) {
		t.Fatalf("%d flight records for %d requests", len(recs), len(reqs))
	}
	for i, r := range reqs {
		rec := recs[len(recs)-1-i]
		if r.ok {
			if rec.Err != "" || rec.Root == nil || rec.Entries == 0 || rec.Hash == 0 {
				t.Errorf("%s %s: record %+v", r.kind, r.text, rec)
			}
		} else if rec.Err == "" || rec.Root != nil || rec.Query != r.text || rec.Hash != 0 {
			t.Errorf("%s %s: record %+v", r.kind, r.text, rec)
		}
	}
}
