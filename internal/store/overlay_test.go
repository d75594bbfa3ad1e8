package store

import (
	"bytes"
	"encoding/binary"
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
			l, err := evalAtomic(ns, q)
			if err != nil {
				t.Fatalf("indexed=%v %s: %v", indexed, c, err)
			}
			if got := keysOf(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("indexed=%v %s:\n got %v\nwant %v", indexed, c, got, want)
			}
			// Every forced access path must agree.
			for _, path := range forcedPaths {
				lp, err := forcePath(testEnv(ns), q, path)
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
		l, err := evalAtomic(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if got := keysOf(t, l); len(got) != 0 {
			t.Errorf("indexed=%v: published store sees post-fork entries: %v", indexed, got)
		}
		if indexed {
			checkEstimates(t, "after one batch", ns, in, overlayCases)
		}
	}
}

// checkEstimates recounts, from the oracle instance, the postings the
// catalog estimates for each case it can estimate: they must be equal.
func checkEstimates(t *testing.T, label string, st *Store, in *model.Instance, cases []string) {
	t.Helper()
	for _, c := range cases {
		q := query.MustParse(c).(*query.Atomic)
		if est, ok := st.stats.estimateHits(st, q); ok && est != truthPostings(in, q) {
			t.Errorf("%s: %s: estimate %d, recount %d", label, c, est, truthPostings(in, q))
		}
	}
}

// TestApplyOpsChainMatchesOracle is TestApplyOpsMatchesOracle over 200
// generations, each forked from the one before: a new person and QHP in,
// those of nine generations ago out. Nearly every surName is a new
// distinct value, so the suffix index's tail grows and is re-sorted and
// the catalog's string and int corrections fold, many times; every
// tenth reuses a surName whose entries are all gone, a stale value of
// the index that becomes live again. Answers by every path and
// estimates are checked against the oracle along the way.
func TestApplyOpsChainMatchesOracle(t *testing.T) {
	const gens, window = 200, 9
	in := buildTestInstance(t, 60)
	st, err := Build(pager.NewDisk(pager.DefaultPageSize), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := append([]string{
		"(dc=com ? sub ? surName=chain*)",
		"(dc=com ? sub ? surName=*n1*)",
		"(dc=com ? sub ? surName=chain010)",
		"(dc=com ? sub ? commonName=*chain0*)",
		"(dc=com ? sub ? priority>=40)",
		"(dc=com ? sub ? priority=42)",
		"(dc=com ? sub ? priority<41)",
	}, overlayCases...)
	personDN := func(g int) model.DN {
		return model.MustParseDN(fmt.Sprintf("uid=c%03d, ou=userProfiles, dc=research, dc=att, dc=com", g))
	}
	qhpDN := func(g int) model.DN { return model.MustParseDN("QHPName=q0, " + personDN(g).String()) }
	entry := func(dn model.DN, class string) *model.Entry {
		e, err := model.NewEntryFromDN(in.Schema(), dn)
		if err != nil {
			t.Fatal(err)
		}
		return e.AddClass(class)
	}
	surname := func(g int) string {
		if g%10 == 0 && g > 2*window {
			g -= 2 * window
		}
		return fmt.Sprintf("chain%03d", g)
	}
	strFolds, intFolds := 0, 0
	for g := 1; g <= gens; g++ {
		person := entry(personDN(g), "inetOrgPerson")
		person.Add("surName", model.String(surname(g)))
		person.Add("commonName", model.String("x "+surname(g)))
		ops := []EntryOp{{Add: person}, {Add: entry(qhpDN(g), "QHP").Add("priority", model.Int(int64(40+g%5)))}}
		if g > window {
			ops = append(ops, EntryOp{Remove: qhpDN(g - window)}, EntryOp{Remove: personDN(g - window)})
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
		next, err := st.ApplyOps(st.Disk().Fork(), ops)
		if err != nil {
			t.Fatalf("generation %d: %v", g, err)
		}
		// A fold leaves a touched attribute without corrections.
		if sn := next.stats.attrs["surname"]; len(sn.strDelta) == 0 {
			strFolds++
		}
		if pr := next.stats.attrs["priority"]; len(pr.intAdd)+len(pr.intDel) == 0 {
			intFolds++
		}
		st = next
		if g%20 != 0 {
			continue
		}
		label := fmt.Sprintf("generation %d", g)
		for _, c := range cases {
			q := query.MustParse(c).(*query.Atomic)
			want := fmt.Sprint(oracle(in, q))
			l, err := evalAtomic(st, q)
			if err != nil {
				t.Fatalf("%s %s: %v", label, c, err)
			}
			if got := fmt.Sprint(keysOf(t, l)); got != want {
				t.Errorf("%s %s:\n got %v\nwant %v", label, c, got, want)
			}
			for _, path := range forcedPaths {
				lp, err := forcePath(testEnv(st), q, path)
				if err != nil {
					t.Fatalf("%s %s path=%s: %v", label, c, path, err)
				}
				if got := fmt.Sprint(keysOf(t, lp)); got != want {
					t.Errorf("%s %s path=%s:\n got %v\nwant %v", label, c, path, got, want)
				}
			}
		}
		checkEstimates(t, label, st, in, cases)
	}
	if strFolds == 0 || strFolds == gens || intFolds == 0 || intFolds == gens {
		t.Errorf("of %d generations %d folded surName's counts and %d priority's values; want some and not all", gens, strFolds, intFolds)
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
		l, err := evalAtomic(ro, q)
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
	dup.AddClass("dcObject")
	if err := apply(EntryOp{Add: dup}); !errors.Is(err, model.ErrDuplicateDN) {
		t.Errorf("duplicate add: %v", err)
	}
	// An add that is no entry of the schema (Definition 3.2): no class.
	bare, err := model.NewEntryFromDN(s, model.MustParseDN("dc=bare, dc=com"))
	if err != nil {
		t.Fatal(err)
	}
	if err := apply(EntryOp{Add: bare}); !errors.Is(err, model.ErrInvalid) {
		t.Errorf("classless add: %v", err)
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
	vec.AddClass("embedded")
	s.MustDefineAttr("profileEmbedding", model.VectorType(4))
	s.MustDefineClass("embedded", "uid", "profileEmbedding")
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

// TestOverlayReadersSeeOwnGeneration: a chain of 200 generations, each a
// Fork()+ApplyOps of the one before, some of them forked a second time
// into a sibling that is thrown away. Every generation sees its own
// state whatever its descendants and siblings do: readers of sampled
// generations run while the chain grows (the race detector's part), and
// at the end every generation answers the wildcard atoms, and estimates
// them, exactly as it did when it was made. Each marker's surName is a
// new distinct value, so the chain grows and re-sorts the suffix
// index's tail and folds the catalog's corrections many times over.
func TestOverlayReadersSeeOwnGeneration(t *testing.T) {
	const gens = 200
	in := buildTestInstance(t, 40)
	d := pager.NewDisk(pager.DefaultPageSize)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	markerDN := func(g int) model.DN {
		return model.MustParseDN(fmt.Sprintf("uid=m%03d, ou=userProfiles, dc=research, dc=att, dc=com", g))
	}
	marker := func(g int, surname string) *model.Entry {
		e, err := model.NewEntryFromDN(in.Schema(), markerDN(g))
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("inetOrgPerson")
		e.Add("surName", model.String(surname))
		e.Add("description", model.String(strings.Repeat("d", 900)))
		return e
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
	q := query.MustParse("(ou=userProfiles, dc=research, dc=att, dc=com ? one ? surName=marker*)").(*query.Atomic)
	probes := []*query.Atomic{q,
		query.MustParse("( ? sub ? surName=*ker0*)").(*query.Atomic),
	}
	// view is what a generation answers and estimates for the probes.
	view := func(s *Store) string {
		var b strings.Builder
		for _, p := range probes {
			l, err := forcePath(testEnv(s), p, PathIndex)
			if err != nil {
				t.Fatal(err)
			}
			est, _ := s.stats.estimateHits(s, p)
			fmt.Fprintln(&b, keysOf(t, l), est)
		}
		return b.String()
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	reader := func(g int, s *Store) {
		defer wg.Done()
		want := fmt.Sprint(markers(g))
		for done := false; !done; done = stop.Load() {
			for _, path := range forcedPaths {
				l, err := forcePath(testEnv(s), q, path)
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
			if est, ok := s.stats.estimateHits(s, q); !ok || est != int64(len(markers(g))) {
				t.Errorf("generation %d estimates %d markers (%v), holds %d", g, est, ok, len(markers(g)))
				return
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
	chain := []*Store{st}
	views := []string{view(st)}
	for g := 1; g <= gens; g++ {
		if g%7 == 0 { // a sibling of generation g, grown from the same parent
			if _, err := cur.ApplyOps(cur.Disk().Fork(), []EntryOp{{Add: marker(g, fmt.Sprintf("markersibling%03d", g))}}); err != nil {
				t.Fatal(err)
			}
		}
		ops := []EntryOp{{Add: marker(g, fmt.Sprintf("marker%03d", g))}}
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
		chain, views = append(chain, cur), append(views, view(cur))
		if g <= 2 || g%50 == 0 {
			wg.Add(1)
			go reader(g, cur)
		}
	}
	stop.Store(true)
	wg.Wait()
	for g, s := range chain {
		if got := view(s); got != views[g] {
			t.Errorf("generation %d answers differently after its descendants' writes:\n was %s\n now %s", g, views[g], got)
		}
		if want := fmt.Sprint(markers(g)); !strings.HasPrefix(views[g], want+" ") {
			t.Errorf("generation %d saw %s, want the markers %s", g, views[g], want)
		}
	}
	if cur.OverlayLen() != gens {
		t.Errorf("overlay holds %d keys after %d generations", cur.OverlayLen(), gens)
	}
	if cur.over.Root() == firstRoot {
		t.Error("the overlay never split: the chain did not exercise a root change")
	}
}

// masterImage is the master list's byte stream as read off the disk,
// split at its length-prefixed records: record i is
// stream[offs[i]:offs[i+1]], prefix included.
type masterImage struct {
	st     *Store
	stream []byte
	offs   []int
}

func readMaster(t *testing.T, st *Store) *masterImage {
	t.Helper()
	mi := &masterImage{st: st}
	page := make([]byte, st.Disk().PageSize())
	for _, id := range st.master.PageIDs() {
		if err := st.Disk().Read(id, page); err != nil {
			t.Fatal(err)
		}
		mi.stream = append(mi.stream, page...)
	}
	mi.stream = mi.stream[:st.master.Size()]
	off := 0
	for off < len(mi.stream) {
		mi.offs = append(mi.offs, off)
		n, w := binary.Uvarint(mi.stream[off:])
		off += w + int(n)
	}
	mi.offs = append(mi.offs, off)
	return mi
}

// body returns record i without its length prefix.
func (mi *masterImage) body(i int) []byte {
	rec := mi.stream[mi.offs[i]:mi.offs[i+1]]
	_, w := binary.Uvarint(rec)
	return rec[w:]
}

// write puts the (same-length) stream back over the master's pages.
func (mi *masterImage) write(t *testing.T) {
	t.Helper()
	ps := mi.st.Disk().PageSize()
	for i, id := range mi.st.master.PageIDs() {
		if err := mi.st.Disk().Write(id, mi.stream[i*ps:min((i+1)*ps, len(mi.stream))]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReopenRefusesDamagedImage: Reopen's one scan is the recovery
// check, for an unindexed store as much as an indexed one. A manifest
// whose count is off by one, master records out of key order or
// repeated, a record that does not decode or decodes to no entry, and
// an entry the schema does not admit are each refused; the undamaged
// image reopens with the orphan count Build computed.
func TestReopenRefusesDamagedImage(t *testing.T) {
	// image is what Reopen is given: a built store's disk, its manifest
	// and the schema.
	type image struct {
		st     *Store
		m      Manifest
		schema *model.Schema
	}
	fill := func(b byte) func(*testing.T, *image) {
		return func(t *testing.T, im *image) {
			mi := readMaster(t, im.st)
			body := mi.body(2)
			for i := range body {
				body[i] = b
			}
			mi.write(t)
		}
	}
	damage := map[string]func(*testing.T, *image){
		"count+1": func(_ *testing.T, im *image) { im.m.Count++ },
		"count-1": func(_ *testing.T, im *image) { im.m.Count-- },
		"swapped records": func(t *testing.T, im *image) {
			mi := readMaster(t, im.st) // records 0 and 1: dc=com and its first child
			swapped := append([]byte(nil), mi.stream[mi.offs[1]:mi.offs[2]]...)
			swapped = append(swapped, mi.stream[:mi.offs[1]]...)
			copy(mi.stream, swapped)
			mi.write(t)
		},
		"repeated record": func(t *testing.T, im *image) {
			mi := readMaster(t, im.st)
			for i := 1; i+1 < len(mi.offs); i++ {
				if len(mi.body(i)) == len(mi.body(i-1)) {
					copy(mi.body(i), mi.body(i-1))
					mi.write(t)
					return
				}
			}
			t.Fatal("no two adjacent records of one length")
		},
		"undecodable record":   fill(0xff),
		"record without entry": fill(0), // empty key, no label, no entry
		"schema-invalid entry": func(_ *testing.T, im *image) {
			im.schema = model.NewSchema() // admits no class at all
		},
	}
	for _, indexed := range []bool{true, false} {
		build := func(t *testing.T) *image {
			in := buildTestInstance(t, 12)
			for _, uid := range []string{"a", "b"} { // two orphans: dc=lost is absent
				e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN("uid="+uid+", dc=lost, dc=ibm, dc=com"))
				if err != nil {
					t.Fatal(err)
				}
				in.MustAdd(e.AddClass("inetOrgPerson"))
			}
			st, err := Build(pager.NewDisk(pager.DefaultPageSize), in, Options{AttrIndex: indexed})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := st.Manifest()
			if err != nil {
				t.Fatal(err)
			}
			im := &image{st: st, schema: st.Schema()}
			if err := json.Unmarshal(raw, &im.m); err != nil {
				t.Fatal(err)
			}
			return im
		}
		reopen := func(im *image) (*Store, error) {
			raw, err := json.Marshal(im.m)
			if err != nil {
				t.Fatal(err)
			}
			return Reopen(im.st.Disk(), im.schema, raw)
		}
		im := build(t)
		ro, err := reopen(im)
		if err != nil {
			t.Fatalf("indexed=%v: undamaged image refused: %v", indexed, err)
		}
		if im.st.Orphans() != 2 || ro.Orphans() != 2 || ro.Count() != im.st.Count() {
			t.Fatalf("indexed=%v: built %d entries with %d orphans, reopened %d with %d; want 2 orphans",
				indexed, im.st.Count(), im.st.Orphans(), ro.Count(), ro.Orphans())
		}
		for name, fn := range damage {
			t.Run(fmt.Sprintf("%s/indexed=%v", name, indexed), func(t *testing.T) {
				im := build(t)
				fn(t, im)
				if _, err := reopen(im); err == nil {
					t.Fatal("damaged image reopened")
				}
			})
		}
	}
}

// TestRemoveEntryHoldingAValueTwice: val(r) is a multiset, so an entry
// may hold one value twice. The value has one posting (Build indexes a
// key met twice once), and removing the entry deletes that posting once
// instead of failing on the second delete.
func TestRemoveEntryHoldingAValueTwice(t *testing.T) {
	in := buildTestInstance(t, 10)
	dn := model.MustParseDN("uid=twice, ou=userProfiles, dc=research, dc=att, dc=com")
	e, err := model.NewEntryFromDN(in.Schema(), dn)
	if err != nil {
		t.Fatal(err)
	}
	e.AddClass("inetOrgPerson").Add("surName", model.String("twice")).Add("surName", model.String("twice"))
	in.MustAdd(e)
	st, err := Build(pager.NewDisk(pager.DefaultPageSize), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ns, err := st.ApplyOps(st.Disk().Fork(), []EntryOp{{Remove: dn}})
	if err != nil {
		t.Fatalf("removing an entry that holds a value twice: %v", err)
	}
	l, err := evalAtomic(ns, query.MustParse("(dc=com ? sub ? surName=twice)").(*query.Atomic))
	if err != nil {
		t.Fatal(err)
	}
	if got := keysOf(t, l); len(got) != 0 {
		t.Errorf("removed entry still found: %v", got)
	}
	// Added back the same way, it is found once.
	if ns, err = ns.ApplyOps(ns.Disk().Fork(), []EntryOp{{Add: e.Clone()}}); err != nil {
		t.Fatal(err)
	}
	if l, err = evalAtomic(ns, query.MustParse("(dc=com ? sub ? surName=twice)").(*query.Atomic)); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(t, l); len(got) != 1 {
		t.Errorf("re-added entry found %d times", len(got))
	}
}

// TestKeysOnlyPathsAfterApplyOps: after entry-level writes every access
// path still answers a keys-only evaluation with exactly the keys of
// the oracle. The keys-only index plan reads the attribute index alone,
// which ApplyOps keeps exact: overlay postings for added entries, none
// for removed ones.
func TestKeysOnlyPathsAfterApplyOps(t *testing.T) {
	in := buildTestInstance(t, 60)
	st, err := Build(pager.NewDisk(pager.DefaultPageSize), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := mutateBoth(t, st, in)
	for _, c := range overlayCases {
		q := query.MustParse(c).(*query.Atomic)
		want := oracle(in, q)
		for _, path := range forcedPaths {
			env := testEnv(ns)
			env.need = NeedKeys
			l, err := forcePath(env, q, path)
			if err != nil {
				t.Fatalf("%s path=%s: %v", c, path, err)
			}
			if got := onlyKeys(t, l); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s path=%s, keys:\n got %v\nwant %v", c, path, got, want)
			}
		}
	}
}
