package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/workload"
)

func cachedForestPair(t *testing.T, n int, seed int64) (cached, plain *Directory) {
	t.Helper()
	var err error
	cached, err = Open(workload.RandomForest(workload.ForestConfig{N: n, Seed: seed}),
		Options{CacheBytes: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	plain, err = Open(workload.RandomForest(workload.ForestConfig{N: n, Seed: seed}),
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cached, plain
}

// marshalResult renders a result byte-exactly: every entry's full LDIF
// block, in order.
func marshalResult(res *Result) string {
	entries, err := plist.SectionEntries(res.Records)
	if err != nil {
		return "records: " + err.Error()
	}
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(ldif.MarshalEntry(e))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCachedRepeatZeroIO is the acceptance criterion: re-executing a
// repeated L1/L2 query from the cache performs zero page I/O, asserted
// via the pager's own counters.
func TestCachedRepeatZeroIO(t *testing.T) {
	cached, _ := cachedForestPair(t, 400, 7)
	queries := []string{
		// L1: descendants of tagged entries.
		`(d (? sub ? tag=a) (? sub ? val>=2))`,
		// L2: aggregate selection.
		`(g (? sub ? tag=b) count(val) >= 1)`,
	}
	for _, qs := range queries {
		first, err := cached.Search(qs)
		if err != nil {
			t.Fatal(err)
		}
		if first.IO.IO() == 0 {
			t.Fatalf("%s: first (miss) evaluation reported zero I/O — bad baseline", qs)
		}
		before := cached.Disk().Stats()
		second, err := cached.Search(qs)
		if err != nil {
			t.Fatal(err)
		}
		if got := second.IO; got != (pager.Stats{}) {
			t.Errorf("%s: cached re-execution reported I/O %v, want none", qs, got)
		}
		if moved := cached.Disk().Stats().Sub(before); moved != (pager.Stats{}) {
			t.Errorf("%s: cached re-execution touched the disk: %v", qs, moved)
		}
		if marshalResult(first) != marshalResult(second) {
			t.Errorf("%s: cached result differs from computed result", qs)
		}
	}
	st := cached.CacheStats()
	if st.Hits != int64(len(queries)) || st.Misses != int64(len(queries)) {
		t.Errorf("cache stats = %+v, want %d hits / %d misses", st, len(queries), len(queries))
	}
}

// TestCacheSharesSemanticallyIdenticalQueries: whitespace, attribute
// case, and commutative operand order must land in one slot.
func TestCacheSharesSemanticallyIdenticalQueries(t *testing.T) {
	cached, _ := cachedForestPair(t, 200, 3)
	variants := []string{
		`(& (? sub ? tag=a) (? sub ? val>=1))`,
		`(&   (? sub ? TAG=a)   (? sub ? val>=1) )`,
		`(& (? sub ? val>=1) (? sub ? tag=a))`,
	}
	want := ""
	for i, qs := range variants {
		res, err := cached.Search(qs)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = marshalResult(res)
			continue
		}
		if marshalResult(res) != want {
			t.Errorf("variant %d returned a different result", i)
		}
	}
	st := cached.CacheStats()
	if st.Misses != 1 || st.Hits != int64(len(variants)-1) {
		t.Errorf("variants did not share one slot: %+v", st)
	}
}

// TestCacheInvalidationOnUpdate: a single Update must invalidate every
// stale entry — the post-update answer reflects the mutation.
func TestCacheInvalidationOnUpdate(t *testing.T) {
	cached, _ := cachedForestPair(t, 200, 5)
	qs := `(? sub ? tag=a)`
	before, err := cached.Search(qs)
	if err != nil {
		t.Fatal(err)
	}
	gen := cached.Generation()
	if err := cached.Update(func(in *model.Instance) error {
		e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN("n=fresh"))
		if err != nil {
			return err
		}
		e.AddClass("node")
		e.Add("tag", model.String("a"))
		return in.Add(e)
	}); err != nil {
		t.Fatal(err)
	}
	if got := cached.Generation(); got != gen+1 {
		t.Fatalf("generation after Update = %d, want %d", got, gen+1)
	}
	after, err := cached.Search(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Entries) != len(before.Entries)+1 {
		t.Fatalf("stale answer served after Update: %d entries, want %d",
			len(after.Entries), len(before.Entries)+1)
	}
	if after.IO.IO() == 0 {
		t.Error("post-update search claimed to be free — stale cache hit?")
	}
}

// randCoreQuery mirrors the engine randquery_test generator's shape at
// the core.Search level: random atomics over the forest vocabulary
// composed with boolean, hierarchical, and aggregate operators.
func randCoreQuery(r *rand.Rand, depth int) query.Query {
	if depth <= 0 || r.Intn(3) == 0 {
		return randCoreAtomic(r)
	}
	switch r.Intn(6) {
	case 0, 1:
		return &query.Bool{
			Op: query.BoolOp(r.Intn(3)),
			Q1: randCoreQuery(r, depth-1),
			Q2: randCoreQuery(r, depth-1),
		}
	case 2, 3:
		op := query.HierOp(r.Intn(6))
		h := &query.Hier{Op: op, Q1: randCoreQuery(r, depth-1), Q2: randCoreQuery(r, depth-1)}
		if op.Ternary() {
			h.Q3 = randCoreQuery(r, depth-1)
		}
		return h
	case 4:
		return &query.SimpleAgg{
			Q: randCoreQuery(r, depth-1),
			AggSel: &query.AggSel{
				Left:  query.EntryAttr(query.AggCount, query.VarSelf, "val"),
				Op:    query.CmpOp(r.Intn(6)),
				Right: query.ConstAttr(int64(r.Intn(4))),
			},
		}
	default:
		return &query.EmbedRef{
			Op:   query.RefOp(r.Intn(2)),
			Q1:   randCoreQuery(r, depth-1),
			Q2:   randCoreQuery(r, depth-1),
			Attr: "ref",
		}
	}
}

func randCoreAtomic(r *rand.Rand) *query.Atomic {
	bases := []string{"", "n=e0", "n=e1, n=e0"}
	scopes := []query.Scope{query.ScopeBase, query.ScopeOne, query.ScopeSub, query.ScopeSub}
	atoms := []func() *filter.Atom{
		func() *filter.Atom { return filter.Eq("tag", string(rune('a'+r.Intn(3)))) },
		func() *filter.Atom { return filter.Present("val") },
		func() *filter.Atom { return filter.NewAtom("val", filter.OpLT, fmt.Sprint(r.Intn(8))) },
		func() *filter.Atom { return filter.NewAtom("val", filter.OpGE, fmt.Sprint(r.Intn(8))) },
		func() *filter.Atom { return filter.Eq("n", fmt.Sprintf("e%d*", r.Intn(3))) },
	}
	return &query.Atomic{
		Base:   model.MustParseDN(bases[r.Intn(len(bases))]),
		Scope:  scopes[r.Intn(len(scopes))],
		Filter: atoms[r.Intn(len(atoms))](),
	}
}

// applyOracleUpdate performs the same deterministic mutation on both
// directories: insert a fresh tagged entry, or remove one previously
// inserted.
func applyOracleUpdate(t *testing.T, dirs []*Directory, step int) {
	t.Helper()
	for _, d := range dirs {
		err := d.Update(func(in *model.Instance) error {
			if step%3 == 2 {
				// Remove the entry two steps ago (present iff it was added).
				in.Remove(model.MustParseDN(fmt.Sprintf("n=u%d", step-2)))
				return nil
			}
			e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN(fmt.Sprintf("n=u%d", step)))
			if err != nil {
				return err
			}
			e.AddClass("node")
			e.Add("tag", model.String(string(rune('a'+step%3))))
			e.Add("val", model.Int(int64(step%8)))
			return in.Add(e)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheOracleRandomQueriesWithUpdates replays the random-query
// generator through a cached Directory interleaved with Update calls
// and requires byte-identical results against an uncached Directory.
// The query pool is small and revisited so most executions are cache
// hits; runs under -race via the Makefile's race target.
func TestCacheOracleRandomQueriesWithUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cached, plain := cachedForestPair(t, 120, 11)

	pool := make([]query.Query, 24)
	for i := range pool {
		pool[i] = randCoreQuery(r, 1+r.Intn(2))
	}
	iters := 400
	if testing.Short() {
		iters = 80
	}
	for i := 0; i < iters; i++ {
		if i > 0 && i%40 == 0 {
			applyOracleUpdate(t, []*Directory{cached, plain}, i/40)
		}
		q := pool[r.Intn(len(pool))]
		want, _, errW := plain.SearchWith(context.Background(), Request{Query: q})
		got, _, errG := cached.SearchWith(context.Background(), Request{Query: q})
		if (errW == nil) != (errG == nil) {
			t.Fatalf("iter %d %s: cached err %v, plain err %v", i, q, errG, errW)
		}
		if errW != nil {
			continue
		}
		if marshalResult(got) != marshalResult(want) {
			t.Fatalf("iter %d: cached result for %s diverged from oracle\ncached:\n%s\nplain:\n%s",
				i, q, marshalResult(got), marshalResult(want))
		}
	}
	st := cached.CacheStats()
	if st.Hits == 0 {
		t.Error("oracle run never hit the cache — pool revisiting broken")
	}
	if st.Misses == 0 {
		t.Error("oracle run never missed — updates did not invalidate")
	}
	t.Logf("oracle: %d iters, cache %+v", iters, st)
}

// TestCacheConcurrentSearchUpdate drives concurrent identical and
// distinct searches against a cached directory while updates run —
// single-flight, generation bumps, and Clear all under -race.
func TestCacheConcurrentSearchUpdate(t *testing.T) {
	cached, _ := cachedForestPair(t, 150, 13)
	queries := []string{
		`(? sub ? tag=a)`,
		`(? sub ? tag=b)`,
		`(d (? sub ? tag=a) (? sub ? val>=1))`,
		`(g (? sub ? tag=c) count(val) >= 1)`,
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := cached.Search(queries[(g+i)%len(queries)]); err != nil {
					t.Errorf("goroutine %d iter %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	for u := 0; u < 5; u++ {
		applyOracleUpdate(t, []*Directory{cached}, 100+u)
	}
	wg.Wait()
	// After the dust settles, a repeated query must still be exact.
	res1, err := cached.Search(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	res2, err := cached.Search(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if marshalResult(res1) != marshalResult(res2) {
		t.Error("post-churn repeat diverged")
	}
}

// TestSnapshotRestoreFreshGeneration: a restored directory starts a
// fresh generation and a working cache.
func TestSnapshotRestoreFreshGeneration(t *testing.T) {
	cached, _ := cachedForestPair(t, 100, 17)
	var buf strings.Builder
	if err := cached.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(strings.NewReader(buf.String()), Options{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Generation() == 0 {
		t.Error("restored directory has zero generation")
	}
	qs := `(? sub ? tag=a)`
	if _, err := restored.Search(qs); err != nil {
		t.Fatal(err)
	}
	res, err := restored.Search(qs)
	if err != nil {
		t.Fatal(err)
	}
	if res.IO != (pager.Stats{}) {
		t.Error("restored directory's cache not serving hits")
	}
	if restored.CacheStats().Hits != 1 {
		t.Errorf("restored cache stats = %+v", restored.CacheStats())
	}
}

// policyPool is the policy workload's read pool over a QoS directory of
// domains domains (benchmark/dirload's spec.pool for gen qos): per
// domain, the four candidate sets apps/qos.Match reads, the denied
// policies' actions and the policies with two or more profiles.
func policyPool(domains int) []string {
	var out []string
	for d := 0; d < domains; d++ {
		dom := fmt.Sprintf("dc=dom%d, dc=att, dc=com", d)
		for _, c := range []string{"SLAPolicyRules", "trafficProfile", "policyValidityPeriod", "SLADSAction"} {
			out = append(out, fmt.Sprintf("(%s ? sub ? objectClass=%s)", dom, c))
		}
		policies := fmt.Sprintf("(%s ? sub ? objectClass=SLAPolicyRules)", dom)
		out = append(out,
			fmt.Sprintf("(vd %s (%s ? sub ? DSPermission=Deny) SLADSActRef)", policies, dom),
			fmt.Sprintf("(g %s count(SLATPRef) >= 2)", policies))
	}
	return out
}

// TestCacheBudgetBoundsHeap: the result cache's byte budget bounds the
// heap it holds. A QoS-2000 directory with the policy workload's
// 3 000 000-byte cache answers its 246-query pool twice, which is about
// twice the budget, so the cache fills and evicts; after a GC the heap
// has grown by at most 1.5× the budget. A cache that charged its
// answers less than they weigh would hold several times that.
func TestCacheBudgetBoundsHeap(t *testing.T) {
	const budget = 3000000
	const domains = 1 + 2000/50
	dir, err := Open(workload.GenQoS(workload.QoSConfig{Domains: domains, PoliciesPerDomain: 50, Seed: 1}), Options{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	pool := policyPool(domains)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for pass := 0; pass < 2; pass++ {
		for _, q := range pool {
			parsed, err := query.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := dir.SearchWith(context.Background(), Request{Query: parsed}); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	rise := int64(heap()) - int64(before)
	st := dir.CacheStats()
	runtime.KeepAlive(dir)
	t.Logf("cache: %d answers, %d bytes charged, %d evictions; heap rose %d bytes", st.Entries, st.Bytes, st.Evictions, rise)
	if st.Bytes > budget || st.Evictions == 0 {
		t.Fatalf("cache charged %d bytes of %d with %d evictions: the pool no longer overfills it", st.Bytes, budget, st.Evictions)
	}
	if rise > budget*3/2 {
		t.Fatalf("heap rose %d bytes over a %d-byte cache budget, more than 1.5×", rise, budget)
	}
}
