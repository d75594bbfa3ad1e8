package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pager"
)

// loadItems returns n items in ascending key order, sized for pageSize
// so that a few hundred of them make a tree three or four levels tall:
// variable-length keys and values, the first and every 37th item exactly
// at the item bound.
func loadItems(r *rand.Rand, pageSize, n int) (keys, vals []string) {
	max := maxItem(pageSize)
	pad := func(limit int) string {
		b := make([]byte, r.Intn(limit+1))
		for i := range b {
			b[i] = byte('a' + r.Intn(26))
		}
		return string(b)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%06d", i*3) // gaps: odd probes fall between keys
		k += pad(max/4 - len(k))
		var v string
		if i%37 == 0 {
			v = pad(0) + string(bytes.Repeat([]byte{'v'}, max-len(k)))
		} else {
			v = pad(max / 4)
		}
		keys, vals = append(keys, k), append(vals, v)
	}
	return keys, vals
}

func loadTree(t *testing.T, d *pager.Disk, keys, vals []string) *Tree {
	t.Helper()
	l := NewLoader(d)
	for i := range keys {
		if err := l.Add([]byte(keys[i]), []byte(vals[i])); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := l.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// height is the number of levels on the leftmost root-to-leaf path.
func height(t *testing.T, tr *Tree) int {
	t.Helper()
	h := 1
	for id := tr.root; ; h++ {
		page, err := tr.page(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newCursor(page)
		if err != nil {
			t.Fatal(err)
		}
		if c.leaf {
			return h
		}
		id = c.link()
	}
}

// answers renders everything a reader can ask the tree, for the given
// probes: each probe's Get, a bounded Seek/Iter walk and a Scan from it
// to a later probe, and a ScanPrefix of its first two bytes.
func answers(t *testing.T, tr *Tree, probes []string) string {
	t.Helper()
	var b bytes.Buffer
	for i, p := range probes {
		v, err := tr.Get([]byte(p))
		fmt.Fprintf(&b, "get %q = %q %v\n", p, v, err)
		it := tr.Seek([]byte(p), nil)
		for n := 0; it.Valid() && n < 5; it.Next() {
			fmt.Fprintf(&b, " iter %q=%q\n", it.Key(), it.Val())
			n++
		}
		fmt.Fprintf(&b, " iter err %v\n", it.Err())
		hi := []byte(probes[(i+7)%len(probes)])
		if bytes.Compare(hi, []byte(p)) <= 0 {
			hi = nil
		}
		n := 0
		err = tr.Scan([]byte(p), hi, func(k, v []byte) bool {
			fmt.Fprintf(&b, " scan %q=%q\n", k, v)
			n++
			return n < 40
		})
		fmt.Fprintf(&b, " scan err %v\n", err)
		if len(p) >= 2 {
			err = tr.ScanPrefix([]byte(p[:2]), func(k, _ []byte) bool {
				fmt.Fprintf(&b, " prefix %q\n", k)
				return true
			})
			fmt.Fprintf(&b, " prefix err %v\n", err)
		}
	}
	return b.String()
}

// matchesOracle checks Len, a full scan and a Get of every key against
// a map.
func matchesOracle(t *testing.T, tr *Tree, oracle map[string]string) {
	t.Helper()
	if tr.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle holds %d", tr.Len(), len(oracle))
	}
	want := make([]string, 0, len(oracle))
	for k := range oracle {
		want = append(want, k)
	}
	sort.Strings(want)
	i := 0
	if err := tr.Scan(nil, nil, func(k, v []byte) bool {
		if i >= len(want) || string(k) != want[i] || string(v) != oracle[want[i]] {
			t.Fatalf("scan item %d: %q=%q", i, k, v)
		}
		i++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("scan yielded %d of %d keys", i, len(want))
	}
	for k, v := range oracle {
		if got, err := tr.Get([]byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%q) = %q, %v", k, got, err)
		}
	}
}

// churn runs ops random Inserts and Deletes against the tree and the
// oracle, over the loaded keys and between them.
func churn(t *testing.T, r *rand.Rand, tr *Tree, oracle map[string]string, keys []string, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("k%06d", r.Intn(3*len(keys)+3))
		if len(keys) > 0 && r.Intn(2) == 0 {
			k = keys[r.Intn(len(keys))]
		}
		if r.Intn(3) == 0 {
			err := tr.Delete([]byte(k))
			if _, ok := oracle[k]; ok != (err == nil) || (err != nil && !errors.Is(err, ErrNotFound)) {
				t.Fatalf("Delete(%q): %v, present %v", k, err, ok)
			}
			delete(oracle, k)
			continue
		}
		v := fmt.Sprint("new", i)
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		oracle[k] = v
	}
	matchesOracle(t, tr, oracle)
}

// TestLoadMatchesInsert: a bulk-loaded tree is a tree like any other.
// On pages of 128, 256 and 4096 bytes, and with no items, one, or
// enough for three or four levels (items at the item bound among them),
// the loaded tree answers every read exactly as a tree built by
// inserting the same items in random order; it takes Inserts and
// Deletes, in place and over a fork, keeping step with a map while the
// fork's parent stays as loaded; and its page walk counts every page the
// load allocated, so the load leaks none.
func TestLoadMatchesInsert(t *testing.T) {
	for _, pageSize := range []int{128, 256, 4096} {
		for _, n := range []int{0, 1, 700} {
			t.Run(fmt.Sprintf("page%d/n%d", pageSize, n), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(pageSize + n)))
				keys, vals := loadItems(r, pageSize, n)
				d := pager.NewDisk(pageSize)
				loaded := loadTree(t, d, keys, vals)
				if loaded.Len() != n {
					t.Fatalf("Len = %d, want %d", loaded.Len(), n)
				}
				if pages, err := loaded.Pages(nil); err != nil || pages != d.NumPages() {
					t.Fatalf("Pages = %d, %v; the load allocated %d", pages, err, d.NumPages())
				}
				if h := height(t, loaded); n > 1 && h < 3 {
					t.Fatalf("%d items make a tree %d levels tall; want 3 or more", n, h)
				}

				inserted, _ := newTestTree(t, pageSize)
				for _, i := range r.Perm(n) {
					if err := inserted.Insert([]byte(keys[i]), []byte(vals[i])); err != nil {
						t.Fatal(err)
					}
				}
				probes := []string{"", "a", "k", "k000001", "z", "\xff\xff"}
				for i := 0; i < 60; i++ {
					probes = append(probes, fmt.Sprintf("k%06d", r.Intn(3*n+3)))
					if n > 0 {
						probes = append(probes, keys[r.Intn(n)])
					}
				}
				want := answers(t, inserted, probes)
				if got := answers(t, loaded, probes); got != want {
					t.Fatalf("loaded tree answers differ from the inserted tree's:\n%s\nwant:\n%s", got, want)
				}

				oracle := make(map[string]string, n)
				for i := range keys {
					oracle[keys[i]] = vals[i]
				}
				fork := d.Fork()
				forked := Open(fork, loaded.Root(), loaded.Len())
				churn(t, r, forked, copyMap(oracle), keys, 500)
				if pages, err := forked.Pages(nil); err != nil || pages != fork.NumPages() {
					t.Fatalf("fork Pages = %d, %v; the fork holds %d", pages, err, fork.NumPages())
				}
				if got := answers(t, Open(d, loaded.Root(), loaded.Len()), probes); got != want {
					t.Fatal("writes on the fork changed the parent tree")
				}
				churn(t, r, loaded, oracle, keys, 500)
				if pages, err := loaded.Pages(nil); err != nil || pages != d.NumPages() {
					t.Fatalf("Pages after churn = %d, %v; the disk holds %d", pages, err, d.NumPages())
				}
			})
		}
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestLoadRefusesBadInput: the loader is the order check of the data it
// loads — a key that repeats or precedes the one before it is
// ErrUnsorted — and holds the item bound Insert holds (ErrTooBig).
func TestLoadRefusesBadInput(t *testing.T) {
	d := pager.NewDisk(256)
	l := NewLoader(d)
	if err := l.Add([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "a", ""} {
		if err := l.Add([]byte(k), nil); !errors.Is(err, ErrUnsorted) {
			t.Errorf("Add(%q) after \"b\": %v, want ErrUnsorted", k, err)
		}
	}
	if err := l.Add([]byte("c"), make([]byte, maxItem(256))); !errors.Is(err, ErrTooBig) {
		t.Errorf("oversized item: %v, want ErrTooBig", err)
	}
	if err := l.Add([]byte("c"), make([]byte, maxItem(256)-1)); err != nil {
		t.Errorf("item at the bound: %v", err)
	}
}
