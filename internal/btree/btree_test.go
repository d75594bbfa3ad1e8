package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/pager"
)

func newTestTree(t *testing.T, pageSize int) (*Tree, *pager.Disk) {
	t.Helper()
	d := pager.NewDisk(pageSize)
	tr, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	return tr, d
}

func TestInsertGet(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	n := 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i*7%n))
		v := []byte(fmt.Sprintf("val%d", i*7%n))
		if err := tr.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := tr.Get(k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if want := fmt.Sprintf("val%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	if _, err := tr.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestInsertReplace(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	if err := tr.Insert([]byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	v, err := tr.Get([]byte("k"))
	if err != nil || string(v) != "v2" {
		t.Fatalf("Get = %q, %v", v, err)
	}
}

func TestScanRange(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("k%04d", i))
		if err := tr.Insert(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tr.Scan([]byte("k0100"), []byte("k0110"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != "k0100" || got[9] != "k0109" {
		t.Fatalf("scan = %v", got)
	}
	// Early stop.
	count := 0
	err = tr.Scan([]byte("k0000"), nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if err != nil || count != 5 {
		t.Fatalf("early stop: %d, %v", count, err)
	}
}

func TestScanPrefix(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	keys := []string{"ab", "abc", "abd", "ac", "b"}
	for _, k := range keys {
		if err := tr.Insert([]byte(k), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := tr.ScanPrefix([]byte("ab"), func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"ab", "abc", "abd"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestPrefixUpperBound(t *testing.T) {
	cases := []struct {
		in   []byte
		want []byte
	}{
		{[]byte("ab"), []byte("ac")},
		{[]byte{0x61, 0xff}, []byte{0x62}},
		{[]byte{0xff, 0xff}, nil},
		{[]byte{}, nil},
	}
	for _, c := range cases {
		if got := prefixUpperBound(c.in); !bytes.Equal(got, c.want) {
			t.Errorf("prefixUpperBound(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDelete(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	for i := 0; i < 300; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i += 2 {
		if err := tr.Delete([]byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 150 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 300; i++ {
		_, err := tr.Get([]byte(fmt.Sprintf("k%04d", i)))
		if i%2 == 0 && !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d still present: %v", i, err)
		}
		if i%2 == 1 && err != nil {
			t.Fatalf("surviving key %d lost: %v", i, err)
		}
	}
	if err := tr.Delete([]byte("nosuch")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestTooBig(t *testing.T) {
	tr, _ := newTestTree(t, 128)
	if err := tr.Insert(make([]byte, 200), []byte("v")); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized insert: %v", err)
	}
}

func TestVariableLengthKeys(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	r := rand.New(rand.NewSource(4))
	keys := map[string]string{}
	for i := 0; i < 1000; i++ {
		k := make([]byte, 1+r.Intn(40))
		for j := range k {
			k[j] = byte('a' + r.Intn(26))
		}
		v := fmt.Sprint(i)
		keys[string(k)] = v
		if err := tr.Insert(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(keys))
	}
	for k, v := range keys {
		got, err := tr.Get([]byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v", k, got, err)
		}
	}
	// Full scan must be sorted and complete.
	var scanned []string
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		scanned = append(scanned, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(scanned) {
		t.Fatal("scan out of order")
	}
	if len(scanned) != len(keys) {
		t.Fatalf("scan found %d of %d", len(scanned), len(keys))
	}
}

func TestQuickAgainstMap(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	oracle := map[string]string{}
	r := rand.New(rand.NewSource(8))
	f := func() bool {
		op := r.Intn(3)
		k := fmt.Sprintf("k%03d", r.Intn(200))
		switch op {
		case 0:
			v := fmt.Sprint(r.Intn(1000))
			oracle[k] = v
			if err := tr.Insert([]byte(k), []byte(v)); err != nil {
				return false
			}
		case 1:
			got, err := tr.Get([]byte(k))
			want, ok := oracle[k]
			if ok != (err == nil) {
				return false
			}
			if ok && string(got) != want {
				return false
			}
		case 2:
			err := tr.Delete([]byte(k))
			_, ok := oracle[k]
			if ok != (err == nil) {
				return false
			}
			delete(oracle, k)
		}
		return tr.Len() == len(oracle)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestInteriorCachingSavesIO(t *testing.T) {
	tr, d := newTestTree(t, 256)
	for i := 0; i < 3000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("key%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	d.ResetStats()
	for i := 0; i < 100; i++ {
		if _, err := tr.Get([]byte(fmt.Sprintf("key%06d", i*30))); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	// Interior pages count as resident, so 100 point lookups must cost
	// far fewer than 100 * tree-height page reads: one leaf each.
	if st.Reads > 150 {
		t.Fatalf("point lookups did %d reads; interior pages charged", st.Reads)
	}
}

func TestPersistsThroughPoolEviction(t *testing.T) {
	// Every page an insert edits goes straight back to the disk, and
	// every read decodes or searches the disk's image of it.
	d := pager.NewDisk(256)
	tr, err := New(d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tr.Insert([]byte(fmt.Sprintf("k%06d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 97 {
		v, err := tr.Get([]byte(fmt.Sprintf("k%06d", i)))
		if err != nil || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get after eviction churn: %q, %v", v, err)
		}
	}
}

// TestIterMatchesScan drives the pull iterator against Scan and a
// sorted in-memory oracle on a tree with small pages (so ranges cross
// many leaves) and lazily deleted keys (so some leaves are sparse or
// empty): seeks on keys, between keys, before the first and past the
// last key must all land on the oracle's lower bound.
func TestIterMatchesScan(t *testing.T) {
	tr, _ := newTestTree(t, 256)
	r := rand.New(rand.NewSource(21))
	live := map[string]string{}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%05d", r.Intn(4000)*2) // even: odd probes fall between keys
		if r.Intn(4) == 0 {
			if err := tr.Delete([]byte(k)); err == nil {
				delete(live, k)
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
			continue
		}
		v := fmt.Sprint("v", i)
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		live[k] = v
	}
	// A run of deletions wide enough to empty whole leaves.
	for i := 2000; i < 2400; i += 2 {
		k := fmt.Sprintf("k%05d", i)
		if _, ok := live[k]; ok {
			if err := tr.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(live, k)
		}
	}
	keys := make([]string, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	probes := []string{"", "a", "k", "k00000", "k02001", "k02399", "k07999", "k99999", "z"}
	for i := 0; i < 300; i++ {
		probes = append(probes, fmt.Sprintf("k%05d", r.Intn(8200)))
	}
	for _, lo := range probes {
		want := keys[sort.SearchStrings(keys, lo):]
		limit := len(want)
		if limit > 0 {
			limit = 1 + r.Intn(limit) // a bounded walk: early stops mid-leaf and at leaf ends
		}
		var scanned []string
		if err := tr.Scan([]byte(lo), nil, func(k, v []byte) bool {
			scanned = append(scanned, string(k)+"="+string(v))
			return len(scanned) < limit
		}); err != nil {
			t.Fatal(err)
		}
		var pulled []string
		it := tr.Seek([]byte(lo), nil)
		for ; it.Valid() && len(pulled) < limit; it.Next() {
			pulled = append(pulled, string(it.Key())+"="+string(it.Val()))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if limit == len(want) && limit > 0 && it.Valid() {
			t.Fatalf("Seek(%q): iterator still valid past the last key", lo)
		}
		if len(pulled) != limit || len(scanned) != limit {
			t.Fatalf("Seek(%q): iter %d, scan %d keys; want %d", lo, len(pulled), len(scanned), limit)
		}
		for i := range pulled {
			if w := want[i] + "=" + live[want[i]]; pulled[i] != w || scanned[i] != w {
				t.Fatalf("Seek(%q) item %d: iter %q, scan %q, want %q", lo, i, pulled[i], scanned[i], w)
			}
		}
	}
	// Past the end: invalid at once, and Next stays a no-op.
	it := tr.Seek([]byte("zzz"), nil)
	it.Next()
	if it.Valid() || it.Err() != nil {
		t.Fatalf("seek past the end: valid=%v err=%v", it.Valid(), it.Err())
	}
}

// malformedLeaf is a leaf page claiming five keys whose first key
// length (16383) runs far past the page.
func malformedLeaf(pageSize int) []byte {
	page := make([]byte, pageSize)
	page[0], page[1] = 1, 5
	page[7], page[8] = 0xff, 0x7f
	return page
}

// TestCorruptPageIsAnError: pages come back from snapshot files, so a
// node whose lengths overrun the page must surface as ErrCorrupt from
// every read path instead of panicking.
func TestCorruptPageIsAnError(t *testing.T) {
	d := pager.NewDisk(pager.DefaultPageSize)
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, malformedLeaf(d.PageSize())); err != nil {
		t.Fatal(err)
	}
	tr := Open(d, id, 5)
	if _, err := tr.Get([]byte("k")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get on a corrupt root: %v", err)
	}
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Scan on a corrupt root: %v", err)
	}
	if it := tr.Seek(nil, nil); it.Valid() || !errors.Is(it.Err(), ErrCorrupt) {
		t.Errorf("Seek on a corrupt root: valid=%v err=%v", it.Valid(), it.Err())
	}
	if err := tr.Insert([]byte("k"), []byte("v")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Insert on a corrupt root: %v", err)
	}

	// The same overrun in an interior root, which the read path searches
	// in place without decoding it.
	interior := malformedLeaf(d.PageSize())
	interior[0] = 0
	if err := d.Write(id, interior); err != nil {
		t.Fatal(err)
	}
	tr = Open(d, id, 5)
	if _, err := tr.Get([]byte("k")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get under a corrupt interior root: %v", err)
	}
	if it := tr.Seek([]byte("k"), nil); it.Valid() || !errors.Is(it.Err(), ErrCorrupt) {
		t.Errorf("Seek under a corrupt interior root: valid=%v err=%v", it.Valid(), it.Err())
	}

	// A leaf below the root whose third item overruns the page. Get and
	// Scan read leaves in place and check only the items they reach: a
	// Get of the first key still answers, a Get past the damage and a
	// Scan across it (entering the leaf from the chain) are ErrCorrupt.
	d = pager.NewDisk(256)
	l := NewLoader(d)
	for i := 0; i < 100; i++ {
		if err := l.Add([]byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if tr, err = l.Finish(); err != nil {
		t.Fatal(err)
	}
	second, view, err := tr.leaf([]byte("k0050"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Clone(view)
	c, _ := leafCursor(page)
	c.next()
	c.next()
	first := string(page[8 : 8+page[7]])
	page[c.off], page[c.off+1] = 0xff, 0x7f // the third key's length, 16383: past the page's end
	if err := d.Write(second, page); err != nil {
		t.Fatal(err)
	}
	tr = Open(d, tr.Root(), tr.Len())
	if v, err := tr.Get([]byte(first)); err != nil || string(v) != "v" {
		t.Errorf("Get of a key before the damage: %q, %v", v, err)
	}
	if _, err := tr.Get([]byte("k0099")); err != nil {
		t.Errorf("Get in an undamaged leaf: %v", err)
	}
	if _, err := tr.Get([]byte("k0050")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Get past a corrupt item: %v", err)
	}
	n := 0
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { n++; return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Scan across a corrupt leaf: %v after %d items", err, n)
	}
	it := tr.Seek(nil, nil)
	for it.Valid() {
		it.Next()
	}
	if !errors.Is(it.Err(), ErrCorrupt) {
		t.Errorf("Iter across a corrupt leaf: %v", it.Err())
	}

	// A leaf chain that leads to an interior page (here the root): a walk
	// along the chain must not read it as a leaf.
	firstLeaf, view, err := tr.leaf(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	page = bytes.Clone(view)
	binary.LittleEndian.PutUint32(page[3:], uint32(tr.Root()))
	if err := d.Write(firstLeaf, page); err != nil {
		t.Fatal(err)
	}
	tr = Open(d, tr.Root(), tr.Len())
	if err := tr.Scan(nil, nil, func(_, _ []byte) bool { return true }); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Scan along a chain into an interior page: %v", err)
	}
	for it = tr.Seek(nil, nil); it.Valid(); it.Next() {
	}
	if !errors.Is(it.Err(), ErrCorrupt) {
		t.Errorf("Iter along a chain into an interior page: %v", it.Err())
	}
	if _, err := tr.Pages(nil); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Pages along a chain into an interior page: %v", err)
	}
}
