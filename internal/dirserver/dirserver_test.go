package dirserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/query"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// splitPaperDirectory partitions the paper's sample directory the way
// Figure 1's dotted lines suggest: one server for the upper levels plus
// the userProfiles subtree, one for the research networkPolicies
// subtree.
func splitPaperDirectory(t *testing.T) (whole, upper, policies *core.Directory) {
	t.Helper()
	full := workload.PaperInstance()
	s := full.Schema()
	upperIn := model.NewInstance(s)
	polIn := model.NewInstance(s)
	polRoot := model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com")
	for _, e := range full.Entries() {
		if polRoot.IsAncestorOf(e.DN()) || polRoot.Equal(e.DN()) {
			polIn.MustAdd(e.Clone())
		} else {
			upperIn.MustAdd(e.Clone())
		}
	}
	var err error
	if whole, err = core.Open(full, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if upper, err = core.Open(upperIn, core.Options{}); err != nil {
		t.Fatal(err)
	}
	if policies, err = core.Open(polIn, core.Options{}); err != nil {
		t.Fatal(err)
	}
	return whole, upper, policies
}

func TestRegistryLongestPrefix(t *testing.T) {
	var r Registry
	r.Register(model.MustParseDN("dc=com"), "A")
	r.Register(model.MustParseDN("dc=att, dc=com"), "B")
	r.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), "C")
	cases := []struct {
		dn   string
		want string
	}{
		{"dc=com", "A"},
		{"dc=ibm, dc=com", "A"},
		{"dc=att, dc=com", "B"},
		{"uid=j, dc=research, dc=att, dc=com", "B"},
		{"TPName=x, ou=trafficProfile, ou=networkPolicies, dc=research, dc=att, dc=com", "C"},
	}
	for _, c := range cases {
		got, ok := r.Lookup(model.MustParseDN(c.dn))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %q,%v want %q", c.dn, got, ok, c.want)
		}
	}
	if _, ok := r.Lookup(model.MustParseDN("dc=org")); ok {
		t.Error("unowned namespace resolved")
	}
	if len(r.Zones()) != 3 {
		t.Errorf("zones = %v", r.Zones())
	}
}

func TestServerRoundTrip(t *testing.T) {
	whole, _, _ := splitPaperDirectory(t)
	srv, err := Serve(whole, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	entries, err := Call(context.Background(), srv.Addr(), whole.Schema(), "query",
		"(dc=com ? sub ? objectClass=dcObject)")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Sorted, with typed values intact.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Key() >= entries[i].Key() {
			t.Fatal("remote results not sorted")
		}
	}

	// Atomic kind rejects composites.
	if _, err := Call(context.Background(), srv.Addr(), whole.Schema(), "atomic",
		"(& (dc=com ? sub ? dc=*) (dc=com ? sub ? dc=*))"); !errors.Is(err, ErrRemote) {
		t.Errorf("composite as atomic: %v", err)
	}

	// LDAP kind.
	entries, err = Call(context.Background(), srv.Addr(), whole.Schema(), "ldap",
		"(dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ldap entries = %d", len(entries))
	}

	// Errors propagate.
	if _, err := Call(context.Background(), srv.Addr(), whole.Schema(), "query", "((("); !errors.Is(err, ErrRemote) {
		t.Errorf("parse error: %v", err)
	}
	if _, err := Call(context.Background(), srv.Addr(), whole.Schema(), "bogus", "x"); !errors.Is(err, ErrRemote) {
		t.Errorf("bad kind: %v", err)
	}
}

func TestDistributedEqualsCentralized(t *testing.T) {
	// E14: a federated query over two servers returns exactly what the
	// single-server evaluation returns.
	whole, upper, policies := splitPaperDirectory(t)

	upSrv, err := Serve(upper, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upSrv.Close()
	polSrv, err := Serve(policies, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer polSrv.Close()

	var reg Registry
	reg.Register(model.MustParseDN("dc=com"), upSrv.Addr())
	reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), polSrv.Addr())

	// Coordinate from the "upper" server's point of view.
	coord := NewCoordinator(upper, &reg, upSrv.Addr())
	defer coord.Close()

	queries := []string{
		// Purely local.
		"(dc=com ? sub ? objectClass=TOPSSubscriber)",
		// Purely remote.
		"(ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)",
		// Spanning: Ex 5.2-style ancestors across both servers. The first
		// operand lives on the policy server, the second on both.
		`(a (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=trafficProfile)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? ou=networkPolicies))`,
		// L3 across the wire.
		`(vd (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)
		     (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? destinationPort=25)
		     SLATPRef)`,
		// Boolean mixing local and remote atomics.
		`(| (dc=com ? sub ? objectClass=TOPSSubscriber)
		    (ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLADSAction))`,
		// Scopes that reach the delegated policies zone from above it:
		// the answer holds both zones' entries.
		"(dc=att, dc=com ? sub ? objectClass=*)",
		"(dc=com ? sub ? objectClass=*)",
		"(dc=research, dc=att, dc=com ? one ? objectClass=*)",
	}
	for _, qs := range queries {
		want, err := whole.Search(qs)
		if err != nil {
			t.Fatalf("central %s: %v", qs, err)
		}
		got, err := coord.Search(context.Background(), qs)
		if err != nil {
			t.Fatalf("distributed %s: %v", qs, err)
		}
		if len(got) != len(want.Entries) {
			t.Errorf("%s: distributed %d vs central %d", qs, len(got), len(want.Entries))
			continue
		}
		for i := range got {
			if !got[i].DN().Equal(want.Entries[i].DN()) {
				t.Errorf("%s: entry %d differs: %s vs %s", qs, i, got[i].DN(), want.Entries[i].DN())
			}
		}
	}
	if coord.RemoteAtomics() == 0 {
		t.Error("no atomic sub-queries were shipped remotely")
	}
}

// TestNestedZonesEqualCentralized splits a generated forest into three
// zones, the third delegated inside the second: zone B is a subtree
// two levels down, zone C a subtree inside B with a level of B between
// them, and zone A, the coordinator's own, is everything else. Atomics
// at every scope, from bases above, between and inside the delegations,
// and composites over them, answer through the coordinator exactly
// what the undivided directory answers; a traced one whose atomic is
// answered by three zones conserves its page I/O.
func TestNestedZonesEqualCentralized(t *testing.T) {
	full := workload.RandomForest(workload.ForestConfig{N: 400, MaxDepth: 7, Seed: 47})
	entries := full.Entries()
	below := func(root model.DN, e *model.Entry) bool { return root.Equal(e.DN()) || root.IsAncestorOf(e.DN()) }
	size := func(root model.DN) int {
		n := 0
		for _, e := range entries {
			if below(root, e) {
				n++
			}
		}
		return n
	}
	// The largest subtree at depth 2 is zone B; the largest at depth 4
	// inside it is zone C.
	largest := func(depth int, within model.DN) model.DN {
		var best model.DN
		for _, e := range entries {
			if len(e.DN()) == depth && below(within, e) && (best == nil || size(e.DN()) > size(best)) {
				best = e.DN()
			}
		}
		return best
	}
	rootB := largest(2, nil)
	rootC := largest(4, rootB)
	if rootC == nil || size(rootC) < 3 || size(rootB)-size(rootC) < 3 {
		t.Fatalf("the forest has no nested zones to split: B %s (%d entries), C %s", rootB, size(rootB), rootC)
	}

	s := full.Schema()
	inA, inB, inC := model.NewInstance(s), model.NewInstance(s), model.NewInstance(s)
	for _, e := range entries {
		switch {
		case below(rootC, e):
			inC.MustAdd(e.Clone())
		case below(rootB, e):
			inB.MustAdd(e.Clone())
		default:
			inA.MustAdd(e.Clone())
		}
	}
	open := func(in *model.Instance) *core.Directory {
		dir, err := core.Open(in, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	whole, dirA := open(full), open(inA)
	var reg Registry
	for _, z := range []struct {
		root model.DN
		dir  *core.Directory
	}{{nil, dirA}, {rootB, open(inB)}, {rootC, open(inC)}} {
		srv, err := Serve(z.dir, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		reg.Register(z.root, srv.Addr())
	}
	self, _ := reg.Lookup(nil)
	coord := NewCoordinator(dirA, &reg, self)
	defer coord.Close()

	bases := []model.DN{nil, rootB[1:], rootB, rootC[2:], rootC[1:], rootC}
	for _, e := range entries { // one entry inside C and one in B beside it
		if len(e.DN()) == len(rootC)+1 && below(rootC, e) {
			bases = append(bases, e.DN())
			break
		}
	}
	for _, e := range entries {
		if len(e.DN()) == len(rootC) && below(rootB, e) && !below(rootC, e) {
			bases = append(bases, e.DN())
			break
		}
	}
	var queries []string
	for _, base := range bases {
		for _, scope := range []query.Scope{query.ScopeBase, query.ScopeOne, query.ScopeSub} {
			for _, f := range []string{"objectClass=*", "tag=a", "val>=5"} {
				queries = append(queries, fmt.Sprintf("(%s ? %s ? %s)", base, scope, f))
			}
		}
		queries = append(queries,
			fmt.Sprintf("(& (%s ? sub ? tag=b) (%s ? sub ? val<=3))", base, base),
			fmt.Sprintf("(d (%s ? sub ? tag=a) (%s ? one ? objectClass=*))", base, base))
	}
	crossed := 0
	for _, qs := range queries {
		want, err := whole.Search(qs)
		if err != nil {
			t.Fatalf("central %s: %v", qs, err)
		}
		got, err := coord.Search(context.Background(), qs)
		if err != nil {
			t.Fatalf("federated %s: %v", qs, err)
		}
		if g, w := dnsOf(got), fmt.Sprint(want.DNs()); g != w {
			t.Errorf("%s:\nfederated %s\ncentral   %s", qs, g, w)
		}
		local, err := dirA.Search(qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(local.Entries) != len(want.Entries) {
			crossed++
		}
	}
	if crossed == 0 {
		t.Fatal("no query needed a delegated zone: the comparison is vacuous")
	}

	// One atomic answered by all three zones, traced.
	q := fmt.Sprintf("(%s ? sub ? objectClass=*)", rootB[1:])
	got, root, err := coord.SearchTraced(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := root.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v\n%s", err, formatTree(root))
	}
	zones := 0
	root.Walk(func(s *obs.Span) {
		if s.Op == "zone" {
			zones++
		}
	})
	if zones != 3 || len(root.RemoteRoots()) != 2 {
		t.Fatalf("%d entries from %d zone spans and %d remote subtrees, want 3 and 2\n%s", len(got), zones, len(root.RemoteRoots()), formatTree(root))
	}
}

func TestSecondaryFailover(t *testing.T) {
	// Footnote 4: an unreachable primary must not cut off service when a
	// secondary holds the same subtree.
	whole, upper, policies := splitPaperDirectory(t)
	_ = upper

	polSrv, err := Serve(policies, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer polSrv.Close()

	// The primary address points at a server we immediately close.
	dead, err := Serve(policies, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	_ = dead.Close()

	localSrv, err := Serve(upper, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer localSrv.Close()

	var reg Registry
	reg.Register(model.MustParseDN("dc=com"), localSrv.Addr())
	reg.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"),
		deadAddr, polSrv.Addr()) // dead primary, live secondary

	coord := NewCoordinatorWith(upper, &reg, localSrv.Addr(), fastCoordConfig())
	defer coord.Close()
	q := "(ou=networkPolicies, dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
	got, err := coord.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("failover did not save the query: %v", err)
	}
	want, err := whole.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Entries) {
		t.Fatalf("failover answer %d vs %d", len(got), len(want.Entries))
	}

	// With no live server at all, the error must say so.
	var reg2 Registry
	reg2.Register(model.MustParseDN("dc=com"), localSrv.Addr())
	reg2.Register(model.MustParseDN("ou=networkPolicies, dc=research, dc=att, dc=com"), deadAddr)
	coord2 := NewCoordinatorWith(upper, &reg2, localSrv.Addr(), fastCoordConfig())
	defer coord2.Close()
	if _, err := coord2.Search(context.Background(), q); err == nil {
		t.Fatal("query against only-dead servers succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	whole, _, _ := splitPaperDirectory(t)
	srv, err := Serve(whole, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	errc := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			q := fmt.Sprintf("(dc=com ? sub ? objectClass=%s)",
				[]string{"dcObject", "QHP", "trafficProfile", "SLADSAction"}[i%4])
			entries, err := Call(context.Background(), srv.Addr(), whole.Schema(), "query", q)
			if err == nil && len(entries) == 0 {
				err = fmt.Errorf("empty result for %s", q)
			}
			errc <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errc; err != nil {
			t.Error(err)
		}
	}
}

func TestProtocolRobustness(t *testing.T) {
	whole, _, _ := splitPaperDirectory(t)
	srv, err := Serve(whole, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Malformed JSON: the server answers with an error and closes.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte("{not json\n")); err != nil {
		t.Fatal(err)
	}
	if res := readFrame(t, conn, whole.Schema()); res.Err == "" {
		t.Fatal("malformed request accepted")
	}
	conn.Close()

	// A dropped connection mid-request must not wedge the server.
	conn, err = net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = conn.Write([]byte(`{"kind":"query","query":"`)) // no newline, then drop
	conn.Close()

	// The server still answers new clients.
	entries, err := Call(context.Background(), srv.Addr(), whole.Schema(), "query", "(dc=com ? sub ? objectClass=dcObject)")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %d after abusive clients", len(entries))
	}

	// Several requests on one connection (pipelining).
	conn, err = net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc := json.NewEncoder(conn)
	for i := 0; i < 3; i++ {
		if err := enc.Encode(map[string]string{
			"kind": "query", "query": "(dc=com ? sub ? objectClass=dcObject)",
		}); err != nil {
			t.Fatal(err)
		}
		if r := readFrame(t, conn, whole.Schema()); r.Err != "" || len(r.entries) != 4 {
			t.Fatalf("round %d: %d entries, err=%q", i, len(r.entries), r.Err)
		}
	}
}

func TestEntryWireFidelity(t *testing.T) {
	whole, _, _ := splitPaperDirectory(t)
	srv, err := Serve(whole, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	entries, err := Call(context.Background(), srv.Addr(), whole.Schema(), "query",
		"(dc=com ? sub ? SLAPolicyName=dso)")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d", len(entries))
	}
	dso := entries[0]
	if len(dso.Values("SLATPRef")) != 2 {
		t.Error("DN-valued attributes lost on the wire")
	}
	pr, _ := dso.First("SLARulePriority")
	if pr.Kind() != model.KindInt || pr.Int() != 2 {
		t.Error("int typing lost on the wire")
	}
	if !strings.HasPrefix(dso.DN().String(), "SLAPolicyName=dso") {
		t.Errorf("dn = %s", dso.DN())
	}
}
