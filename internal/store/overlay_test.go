package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// mutate applies a representative batch of entry-level ops to both the
// store (via ApplyOps on a fork) and the in-memory oracle instance.
func mutateBoth(t *testing.T, st *Store, in *model.Instance) (*Store, *pager.Disk) {
	t.Helper()
	s := in.Schema()
	mk := func(dn string, classes []string, avs ...func(*model.Entry)) *model.Entry {
		e, err := model.NewEntryFromDN(s, model.MustParseDN(dn))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range classes {
			e.AddClass(c)
		}
		for _, f := range avs {
			f(e)
		}
		return e
	}
	newPerson := func(uid, sn string) *model.Entry {
		return mk(fmt.Sprintf("uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", uid),
			[]string{"inetOrgPerson", "TOPSSubscriber"},
			func(e *model.Entry) {
				e.Add("surName", model.String(sn))
				e.Add("commonName", model.String("x "+sn))
			})
	}
	ops := []EntryOp{
		// Deletes: a leaf QHP and a person.
		{Remove: model.MustParseDN("QHPName=q0, uid=u0001, ou=userProfiles, dc=research, dc=att, dc=com")},
		{Remove: model.MustParseDN("uid=u0003, ou=userProfiles, dc=research, dc=att, dc=com")},
		// Adds: fresh people with a surname the build never saw.
		{Add: newPerson("u9000", "newcomer")},
		{Add: newPerson("u9001", "newcomer")},
		{Add: mk("QHPName=q9, uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com",
			[]string{"QHP"}, func(e *model.Entry) {
				e.Add("priority", model.Int(42))
			})},
		// Update: delete + re-add the same DN with changed values.
		{Remove: model.MustParseDN("uid=u0002, ou=userProfiles, dc=research, dc=att, dc=com")},
		{Add: newPerson("u0002", "renamed")},
	}
	for _, op := range ops {
		if op.Add != nil {
			if err := in.Add(op.Add); err != nil {
				t.Fatal(err)
			}
		} else if !in.Remove(op.Remove) {
			t.Fatalf("oracle remove %s: not found", op.Remove)
		}
	}
	fork := st.Disk().Fork()
	ns, err := st.ApplyOps(fork, ops)
	if err != nil {
		t.Fatal(err)
	}
	return ns, fork
}

var overlayCases = append([]string{
	// Shapes that exercise the mutated values specifically.
	"(dc=com ? sub ? surName=newcomer)",
	"(dc=com ? sub ? surName=*come*)",
	"(dc=com ? sub ? surName=renamed)",
	"(dc=com ? sub ? priority>=42)",
	"(uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=inetOrgPerson)",
	"(uid=u0003, ou=userProfiles, dc=research, dc=att, dc=com ? base ? objectClass=*)",
	"(uid=u9000, ou=userProfiles, dc=research, dc=att, dc=com ? one ? objectClass=QHP)",
}, atomicCases...)

func TestApplyOpsMatchesOracle(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		in := buildTestInstance(t, 60)
		d := pager.NewDisk(pager.DefaultPageSize)
		st, err := Build(d, in, Options{AttrIndex: indexed})
		if err != nil {
			t.Fatal(err)
		}
		ns, _ := mutateBoth(t, st, in)
		for _, c := range overlayCases {
			q := query.MustParse(c).(*query.Atomic)
			want := oracle(in, q)
			l, err := ns.Eval(q)
			if err != nil {
				t.Fatalf("indexed=%v %s: %v", indexed, c, err)
			}
			if got := keysOf(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("indexed=%v %s:\n got %v\nwant %v", indexed, c, got, want)
			}
			// Every forced access path must agree.
			for _, path := range []string{PathScan, PathIndex} {
				lp, err := ns.EvalPath(q, path)
				if err != nil {
					t.Fatalf("indexed=%v %s path=%s: %v", indexed, c, path, err)
				}
				if got := keysOf(t, lp); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("indexed=%v %s path=%s:\n got %v\nwant %v", indexed, c, path, got, want)
				}
			}
		}
		// The unmutated store still answers from its own (old) snapshot.
		q := query.MustParse("(dc=com ? sub ? surName=newcomer)").(*query.Atomic)
		l, err := st.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(t, l); len(got) != 0 {
			t.Errorf("indexed=%v: published store sees post-fork entries: %v", indexed, got)
		}
	}
}

func TestApplyOpsReopenRoundTrip(t *testing.T) {
	in := buildTestInstance(t, 40)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ns, fork := mutateBoth(t, st, in)
	man, err := ns.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if _, err := fork.WriteTo(&img); err != nil {
		t.Fatal(err)
	}
	disk, err := pager.ReadDisk(&img)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Reopen(disk, in.Schema(), man)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Count() != ns.Count() {
		t.Fatalf("reopened count %d != %d", ro.Count(), ns.Count())
	}
	for _, c := range overlayCases {
		q := query.MustParse(c).(*query.Atomic)
		want := oracle(in, q)
		l, err := ro.Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		if got := keysOf(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("reopened %s:\n got %v\nwant %v", c, got, want)
		}
	}
}

func TestApplyOpsGatesAndErrors(t *testing.T) {
	in := buildTestInstance(t, 10)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	s := in.Schema()
	apply := func(ops ...EntryOp) error {
		_, err := st.ApplyOps(st.Disk().Fork(), ops)
		return err
	}
	// Duplicate add.
	dup, err := model.NewEntryFromDN(s, model.MustParseDN("dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(EntryOp{Add: dup}); err == nil {
		t.Error("duplicate add accepted")
	}
	// Remove of a missing DN.
	if err := apply(EntryOp{Remove: model.MustParseDN("dc=nowhere")}); !errors.Is(err, ErrNoEntry) {
		t.Errorf("missing remove: %v", err)
	}
	// Vector-indexed entries fall back to a full rebuild.
	vec, err := model.NewEntryFromDN(s, model.MustParseDN("uid=v1, ou=userProfiles, dc=research, dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	vec.AddClass("inetOrgPerson")
	s.MustDefineAttr("profileEmbedding", model.VectorType(4))
	vec.Add("profileEmbedding", model.VectorValue([]float32{1, 2, 3, 4}))
	if err := apply(EntryOp{Add: vec}); !errors.Is(err, ErrNeedsRebuild) {
		t.Errorf("vector add: %v", err)
	}
	// Oversized records fall back to a full rebuild.
	big, err := model.NewEntryFromDN(s, model.MustParseDN("uid=big, ou=userProfiles, dc=research, dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	big.AddClass("inetOrgPerson")
	huge := make([]byte, 2048)
	for i := range huge {
		huge[i] = 'a'
	}
	big.Add("commonName", model.String(string(huge)))
	if err := apply(EntryOp{Add: big}); !errors.Is(err, ErrNeedsRebuild) {
		t.Errorf("oversized add: %v", err)
	}
}

// TestApplyOpsTouchesFewPages pins the tentpole property: an entry-level
// mutation dirties O(log N) pages on the fork, not the O(N) a full
// rebuild writes.
func TestApplyOpsTouchesFewPages(t *testing.T) {
	in := buildTestInstance(t, 400)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN("uid=zz, ou=userProfiles, dc=research, dc=att, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	e.AddClass("inetOrgPerson")
	e.Add("surName", model.String("tiny"))
	fork := d.Fork()
	if _, err := st.ApplyOps(fork, []EntryOp{{Add: e}}); err != nil {
		t.Fatal(err)
	}
	dirty, total := fork.DirtyCount(), d.NumPages()
	if dirty > 64 {
		t.Errorf("single add dirtied %d pages; want O(log N)", dirty)
	}
	if dirty*10 > total {
		t.Errorf("single add dirtied %d of %d pages; a delta buys nothing", dirty, total)
	}
}

// TestReopenRejectsLegacyOverlay: a manifest written before the overlay
// moved onto internal/btree locates it with "overRoot", and those pages
// are in another node format. Reopen must name the format and refuse,
// not walk them as B+tree nodes; the same manifest without the overlay
// locator still opens.
func TestReopenRejectsLegacyOverlay(t *testing.T) {
	in := buildTestInstance(t, 10)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	man, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(man, &fields); err != nil {
		t.Fatal(err)
	}
	fields["poolPages"] = 64 // written by every older manifest; ignored now
	old, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Reopen(d, in.Schema(), old)
	if err != nil {
		t.Fatalf("older manifest without an overlay: %v", err)
	}
	if ro.Count() != st.Count() || ro.OverlayLen() != 0 {
		t.Fatalf("older manifest reopened with count %d, overlay %d", ro.Count(), ro.OverlayLen())
	}
	fields["overRoot"], fields["overLen"] = 7, 3
	if old, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	if _, err := Reopen(d, in.Schema(), old); !errors.Is(err, ErrLegacyOverlay) {
		t.Fatalf("legacy overlay manifest: %v, want ErrLegacyOverlay", err)
	}
}

// TestOverlayReadersSeeOwnGeneration: every generation of a
// Fork()+ApplyOps chain is published to a reader that keeps scanning
// and point-fetching its overlay while the writer forks it and mutates
// the children. pager.Fork is the only copy-on-write mechanism under
// the overlay tree, so each reader must keep seeing exactly the marker
// entries of its own generation. Run under -race.
func TestOverlayReadersSeeOwnGeneration(t *testing.T) {
	const gens = 12
	in := buildTestInstance(t, 40)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	markerDN := func(g int) model.DN {
		return model.MustParseDN(fmt.Sprintf("uid=m%02d, ou=userProfiles, dc=research, dc=att, dc=com", g))
	}
	// Generation g adds marker g and removes marker g-window, so overlays
	// hold live records and tombstones; five ~900-byte records overflow a
	// page, so the chain also splits the overlay's root.
	const window = 5
	markers := func(g int) []string {
		var keys []string
		for m := g; m >= 1 && m > g-window; m-- {
			keys = append(keys, markerDN(m).Key())
		}
		sort.Strings(keys)
		return keys
	}
	q := query.MustParse("(ou=userProfiles, dc=research, dc=att, dc=com ? one ? surName=marker)").(*query.Atomic)

	var stop atomic.Bool
	var wg sync.WaitGroup
	reader := func(g int, s *Store) {
		defer wg.Done()
		want := fmt.Sprint(markers(g))
		for done := false; !done; done = stop.Load() {
			for _, path := range []string{PathScan, PathIndex} {
				l, err := s.EvalPathArena(pager.NewArena(s.Disk()), q, path)
				if err != nil {
					t.Errorf("generation %d path %s: %v", g, path, err)
					return
				}
				recs, err := plist.Drain(l)
				if err != nil {
					t.Errorf("generation %d path %s: %v", g, path, err)
					return
				}
				keys := make([]string, len(recs))
				for i, r := range recs {
					keys[i] = r.Key
				}
				if got := fmt.Sprint(keys); got != want {
					t.Errorf("generation %d path %s sees %s, want %s", g, path, got, want)
					return
				}
			}
			if _, err := s.Get(markerDN(g)); err != nil {
				t.Errorf("generation %d lost its own marker: %v", g, err)
				return
			}
			if _, err := s.Get(markerDN(g + 1)); !errors.Is(err, ErrNoEntry) {
				t.Errorf("generation %d sees a later generation's marker: %v", g, err)
				return
			}
		}
	}

	cur := st
	var firstRoot pager.PageID
	for g := 1; g <= gens; g++ {
		e, err := model.NewEntryFromDN(in.Schema(), markerDN(g))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("inetOrgPerson")
		e.Add("surName", model.String("marker"))
		e.Add("description", model.String(strings.Repeat("d", 900)))
		ops := []EntryOp{{Add: e}}
		if g > window {
			ops = append(ops, EntryOp{Remove: markerDN(g - window)})
		}
		next, err := cur.ApplyOps(cur.Disk().Fork(), ops)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatal(err)
		}
		cur = next
		if g == 1 {
			firstRoot = cur.over.Root()
		}
		wg.Add(1)
		go reader(g, cur)
	}
	stop.Store(true)
	wg.Wait()
	if cur.OverlayLen() != gens {
		t.Errorf("overlay holds %d keys after %d generations", cur.OverlayLen(), gens)
	}
	if cur.over.Root() == firstRoot {
		t.Error("the overlay never split: the chain did not exercise a root change")
	}
}
