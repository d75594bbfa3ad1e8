// Distributed directories (Sections 3.3 and 8.3 of the paper): the
// hierarchical namespace is delegated DNS-style across directory
// servers; a query posed at one server ships each atomic sub-query to
// the server owning its base DN, then combines the sorted results
// locally. This example splits the paper's sample directory in two,
// serves both halves over TCP, runs federated queries, and scrapes the
// coordinator's /statusz admin endpoint through the chaos sequence —
// watching the breaker counters move as replicas die.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// scrapeStatusz pulls the admin endpoint the way an operator (or a
// collector) would — over HTTP, not via in-process method calls.
func scrapeStatusz(addr string) (metrics map[string]any, status map[string]any) {
	res, err := http.Get("http://" + addr + "/statusz")
	if err != nil {
		log.Fatal(err)
	}
	defer res.Body.Close()
	var doc struct {
		Metrics map[string]any `json:"metrics"`
		Status  map[string]any `json:"status"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		log.Fatal(err)
	}
	return doc.Metrics, doc.Status
}

// report prints one scraped snapshot: breaker states plus the
// distributed-evaluation counters that moved during the chaos.
func report(stage, adminAddr string) {
	metrics, status := scrapeStatusz(adminAddr)
	fmt.Printf("[%s] /statusz:\n", stage)
	fmt.Printf("    breakers: primary=%v secondary=%v\n", status["breaker_primary"], status["breaker_secondary"])
	for _, k := range []string{
		"dirkit_coord_remote_atomics", "dirkit_coord_retries", "dirkit_coord_failovers",
		"dirkit_coord_breaker_trips", "dirkit_coord_breaker_skips",
	} {
		fmt.Printf("    %s = %v\n", k, metrics[k])
	}
	fmt.Println()
}

func main() {
	full := workload.PaperInstance()
	schema := full.Schema()

	// Partition along Figure 1's administrative boundary: the research
	// networkPolicies subtree goes to its own server.
	polRoot := model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com")
	upperIn := model.NewInstance(schema)
	polIn := model.NewInstance(schema)
	for _, e := range full.Entries() {
		if polRoot.IsAncestorOf(e.DN()) || polRoot.Equal(e.DN()) {
			polIn.MustAdd(e.Clone())
		} else {
			upperIn.MustAdd(e.Clone())
		}
	}

	upperDir, err := core.Open(upperIn, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	polDir, err := core.Open(polIn, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	upperSrv, err := dirserver.Serve(upperDir, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer upperSrv.Close()
	polSrv, err := dirserver.Serve(polDir, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer polSrv.Close()
	// A second replica of the policies subtree — the paper's footnote 4
	// secondary server ("one unreachable network will not necessarily
	// cut off network directory service").
	polDir2, err := core.Open(polIn, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	polSrv2, err := dirserver.Serve(polDir2, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer polSrv2.Close()
	fmt.Printf("server A (%d entries, upper levels + userProfiles): %s\n", upperDir.Count(), upperSrv.Addr())
	fmt.Printf("server B (%d entries, networkPolicies subtree):     %s\n", polDir.Count(), polSrv.Addr())
	fmt.Printf("server B' (%d entries, secondary replica of B):     %s\n", polDir2.Count(), polSrv2.Addr())

	// DNS-style delegation registry: primary first, secondary after.
	var reg dirserver.Registry
	reg.Register(model.MustParseDN("dc=com"), upperSrv.Addr())
	reg.Register(polRoot, polSrv.Addr(), polSrv2.Addr())
	for _, z := range reg.Zones() {
		fmt.Println("delegation:", z)
	}
	fmt.Println()

	// Pose federated queries at server A. The coordinator's pooled
	// client enforces deadlines and retries transient failures; tight
	// timeouts keep the failover demo below snappy. Threshold 1 trips
	// breakers on the first failure so the /statusz scrapes show the
	// transitions immediately.
	coord := dirserver.NewCoordinatorWith(upperDir, &reg, upperSrv.Addr(), dirserver.CoordinatorConfig{
		Client: dirserver.ClientConfig{
			DialTimeout:    500 * time.Millisecond,
			RequestTimeout: time.Second,
			MaxRetries:     1,
		},
		Breaker: dirserver.BreakerConfig{Threshold: 1, Cooldown: 30 * time.Second},
	})
	defer coord.Close()

	// The observability surface: the coordinator's counters as
	// pull-based gauges on an HTTP admin listener, with live breaker
	// states in the /statusz status section.
	obsReg := obs.NewRegistry()
	coord.RegisterMetrics(obsReg, "dirkit_coord")
	admin, err := obs.ServeAdmin("127.0.0.1:0", obsReg, func() any {
		return map[string]any{
			"breaker_primary":   coord.BreakerState(polSrv.Addr()),
			"breaker_secondary": coord.BreakerState(polSrv2.Addr()),
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	fmt.Printf("admin endpoint: http://%s (/metrics, /statusz, /debug/pprof)\n\n", admin.Addr())
	queries := []string{
		// Entirely remote: policies live on server B.
		`(g (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		    count(SLAPVPRef) > 1)`,
		// Mixed: subscribers on A, actions on B, one boolean query.
		`(| (dc=com ? sub ? objectClass=TOPSSubscriber)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`,
		// L3 across the wire: policies and their SMTP profiles, both on B,
		// coordinated from A.
		`(vd (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		     (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? destinationPort=25)
		     SLATPRef)`,
	}
	ctx := context.Background()
	for _, q := range queries {
		entries, err := coord.Search(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("federated query:\n%s\n", q)
		for _, e := range entries {
			fmt.Printf("    -> %s\n", e.DN())
		}
		fmt.Println()
	}

	report("healthy", admin.Addr())

	// Footnote 4 in action: kill the primary policies server and pose
	// the same federated query — the coordinator's failover serves it
	// from the secondary replica, and the scraped breaker counters show
	// the primary tripping open.
	fmt.Println("killing the primary policies server...")
	_ = polSrv.Close()
	entries, err := coord.Search(ctx, queries[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query after primary loss still answered (%d entries) via the secondary\n\n", len(entries))
	report("primary down", admin.Addr())

	// Kill the secondary too: the whole zone is unreachable, and a
	// query that needs it fails with the typed ErrUnavailable.
	fmt.Println("killing the secondary policies server as well...")
	_ = polSrv2.Close()
	_, err = coord.Search(ctx, queries[0])
	if !errors.Is(err, dirserver.ErrUnavailable) {
		log.Fatalf("zone down: want ErrUnavailable, got %v", err)
	}
	fmt.Printf("query with the whole zone down fails: %v\n\n", err)
	report("zone down", admin.Addr())

	st := coord.Stats()
	fmt.Printf("remote atomics: %d  retries: %d  failovers: %d  breaker trips: %d\n",
		st.RemoteAtomics, st.Retries, st.Failovers, st.BreakerTrips)
}
