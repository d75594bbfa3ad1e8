package dirserver

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// frameSection splits a reply frame the server built into its header
// and its record section with the section's record count.
func frameSection(t testing.TB, frame []byte) (response, int, []byte) {
	t.Helper()
	r := frameReader{b: frame[frameHead : len(frame)-frameTrailer]}
	var res response
	res.Gen, res.ServeUS, res.QueueUS = r.varint(), r.varint(), r.varint()
	res.Err = string(r.bytes())
	r.bytes() // trace
	n := r.uvarint()
	if r.bad {
		t.Fatalf("frame header does not parse")
	}
	return res, int(n), r.b
}

// servedFixtures are the directories and queries TestServedRecordsUnchanged
// serves: the analytic workload's forest and its whole-directory L0–L3
// queries, whose result lists carry labels and annotations; policy and
// lookup queries over QoS and TOPS directories; the paper's instance;
// and an empty answer.
func servedFixtures() []struct {
	name    string
	in      *model.Instance
	queries []string
} {
	topsBase := "ou=userProfiles, dc=research, dc=att, dc=com"
	var tops, qos []string
	for _, uid := range []string{"sub0000", "sub0007", "sub0150"} {
		tops = append(tops,
			fmt.Sprintf("(%s ? one ? uid=%s)", topsBase, uid),
			fmt.Sprintf("(uid=%s, %s ? one ? objectClass=QHP)", uid, topsBase),
			fmt.Sprintf("(QHPName=qhp0, uid=%s, %s ? one ? objectClass=callAppearance)", uid, topsBase))
	}
	for d := 0; d < 2; d++ {
		dom := fmt.Sprintf("dc=dom%d, dc=att, dc=com", d)
		policies := fmt.Sprintf("(%s ? sub ? objectClass=SLAPolicyRules)", dom)
		qos = append(qos, policies,
			fmt.Sprintf("(%s ? sub ? objectClass=trafficProfile)", dom),
			fmt.Sprintf("(%s ? sub ? objectClass=policyValidityPeriod)", dom),
			fmt.Sprintf("(%s ? sub ? objectClass=SLADSAction)", dom),
			fmt.Sprintf("(vd %s (%s ? sub ? DSPermission=Deny) SLADSActRef)", policies, dom),
			fmt.Sprintf("(g %s count(SLATPRef) >= 2)", policies))
	}
	return []struct {
		name    string
		in      *model.Instance
		queries []string
	}{
		{"forest", workload.RandomForest(workload.ForestConfig{N: 3000, Seed: 1}), []string{
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
			`(- ( ? sub ? tag=a) ( ? sub ? tag=a))`,
		}},
		{"qos", workload.GenQoS(workload.QoSConfig{Domains: 3, PoliciesPerDomain: 50, Seed: 1}), qos},
		{"tops", workload.GenTOPS(workload.TOPSConfig{Subscribers: 200, Seed: 1}), tops},
		{"paper", workload.PaperInstance(), []string{
			`(dc=com ? sub ? objectClass=QHP)`,
			`(c (dc=att, dc=com ? sub ? objectClass=TOPSSubscriber) (dc=att, dc=com ? sub ? QHPName=weekend))`,
			`(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) count(SLAPVPRef) > 1)`,
			`(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules) (& (dc=att, dc=com ? sub ? destinationPort=25) (dc=att, dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)`,
		}},
	}
}

// TestServedRecordsUnchanged: a served reply carries, byte for byte,
// the records the server sent when it encoded each entry of the answer
// (plist.AppendRecord(plist.FromEntry(e)) over what Search returns),
// whether the query is a cache miss, a cache hit or traced, and the
// flight recorder hashes those same bytes.
func TestServedRecordsUnchanged(t *testing.T) {
	for _, fx := range servedFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ref, err := core.Open(fx.in, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cachedDir, err := core.Open(fx.in, core.Options{CacheBytes: 1 << 26})
			if err != nil {
				t.Fatal(err)
			}
			cached := &Server{dir: cachedDir}
			flight := obs.NewFlightRecorder(4)
			traced, err := ServeWith(ref, "127.0.0.1:0", ServerConfig{Flight: flight})
			if err != nil {
				t.Fatal(err)
			}
			defer traced.Close()
			for i, q := range fx.queries {
				want, err := ref.Search(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				wantSec := sectionOf(want.Entries)
				wantHash := fnv.New64a()
				wantHash.Write(wantSec)
				for _, mode := range []struct {
					name string
					s    *Server
				}{{"miss", cached}, {"hit", cached}, {"traced", traced}} {
					frame := mode.s.serveOne(nil, request{Kind: "query", Query: q}, time.Now())
					res, n, sec := frameSection(t, frame)
					if res.Err != "" || n != len(want.Entries) || !bytes.Equal(sec, wantSec) {
						t.Fatalf("%s %s: %d records, error %q; section equal to the entries' records: %v",
							mode.name, q, n, res.Err, bytes.Equal(sec, wantSec))
					}
				}
				if hits := cachedDir.CacheStats().Hits; hits != int64(i+1) {
					t.Fatalf("%s: %d cache hits after %d repeats", q, hits, i+1)
				}
				rec := flight.Snapshot()[0]
				if rec.Hash != wantHash.Sum64() || rec.Entries != len(want.Entries) || rec.Gen != want.Gen {
					t.Fatalf("%s: flight record hash %x over %d entries at generation %d, want %x over %d at %d",
						q, rec.Hash, rec.Entries, rec.Gen, wantHash.Sum64(), len(want.Entries), want.Gen)
				}
			}
		})
	}
}

// TestServedHitAllocsFlat: a cache hit is served by copying the cached
// record section into the reply, so what it allocates does not grow
// with the answer: the same policy query costs as many allocations
// against 5 policies per domain as against 50.
func TestServedHitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are not the build's")
	}
	const q = "(dc=dom0, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
	var allocs [2]float64
	var counts [2]int
	for i, policies := range []int{5, 50} {
		dir, err := core.Open(workload.GenQoS(workload.QoSConfig{Domains: 2, PoliciesPerDomain: policies, Seed: 1}), core.Options{CacheBytes: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		s := &Server{dir: dir}
		req := request{Kind: "query", Query: q}
		buf := s.serveOne(nil, req, time.Now()) // the miss fills the cache
		_, counts[i], _ = frameSection(t, buf)
		allocs[i] = testing.AllocsPerRun(50, func() { buf = s.serveOne(buf, req, time.Now()) })
	}
	if counts[1] < 5*counts[0] {
		t.Fatalf("answers of %d and %d entries: too close to tell", counts[0], counts[1])
	}
	if allocs[1] != allocs[0] {
		t.Fatalf("a hit of %d entries allocates %.0f times, of %d entries %.0f", counts[0], allocs[0], counts[1], allocs[1])
	}
}

// BenchmarkServeReply serves one request into a reply frame, reusing
// the frame buffer as a connection does: a TOPS-2000 subscriber lookup
// evaluated on every call, as the lookup workload serves it (no result
// cache), and a policy query answered from the cache of a QoS-2000
// directory as the policy workload configures it. A hit copies the
// cached record section, so its allocations do not grow with the
// answer (TestServedHitAllocsFlat).
func BenchmarkServeReply(b *testing.B) {
	for _, bc := range []struct {
		name  string
		in    func() *model.Instance
		opts  core.Options
		query string
	}{
		{"lookup-miss", func() *model.Instance { return workload.GenTOPS(workload.TOPSConfig{Subscribers: 2000, Seed: 1}) },
			core.Options{}, "(ou=userProfiles, dc=research, dc=att, dc=com ? one ? uid=sub0042)"},
		{"policy-hit", func() *model.Instance {
			return workload.GenQoS(workload.QoSConfig{Domains: 1 + 2000/50, PoliciesPerDomain: 50, Seed: 1})
		}, core.Options{CacheBytes: 3000000}, "(dc=dom7, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir, err := core.Open(bc.in(), bc.opts)
			if err != nil {
				b.Fatal(err)
			}
			s := &Server{dir: dir}
			req := request{Kind: "query", Query: bc.query}
			buf := s.serveOne(nil, req, time.Now())
			if res, n, _ := frameSection(b, buf); res.Err != "" || n == 0 {
				b.Fatalf("%d entries, error %q", n, res.Err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = s.serveOne(buf, req, time.Now())
			}
			_, n, _ := frameSection(b, buf)
			b.ReportMetric(float64(n), "entries/op")
		})
	}
}
