package btree

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/pager"
)

// FuzzPage holds the page codec to two oracles.
//
// Hostile pages: the fuzz bytes, taken as the one page of a tree, go to
// every reader — the descent's childFor, Get, an Iter walk and Scan —
// and to Insert and Delete. Each returns a result or a typed error
// (ErrCorrupt; ErrNotFound; pager.ErrBadPage for a child or chain link
// past the disk), never a panic, a walk that does not end, or a write
// past the page (which the disk would refuse with ErrPageSize, an error
// this target does not accept).
//
// Splices: the same bytes also pick a page size, sorted items for the
// Loader, and a run of Inserts and Deletes on the loaded tree, which
// must keep step with a map. After the run, Get of every key the run
// touched, Scan and an Iter walk agree with the map, and Pages counts
// every page on the disk.
func FuzzPage(f *testing.F) {
	f.Add([]byte{})
	f.Add(malformedLeaf(64))
	leaf := newPage(nil, true, 2, 9)
	leaf = appendLeafCell(appendLeafCell(leaf, []byte("a"), []byte("1")), []byte("bb"), nil)
	f.Add(leaf)
	f.Add(appendInteriorCell(newPage(nil, false, 1, 3), []byte("m"), 4))
	f.Add(appendInteriorCell(newPage(nil, false, 1, 1), []byte("m"), 1)) // its own child
	f.Add(newPage(nil, true, 0, 1))                                      // its own next leaf
	f.Add([]byte("\x01\x07\x00seeds and splices: 0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hostilePage(t, data)
		splices(t, data)
	})
}

// typed fails the test on an error none of the allowed ones wraps.
func typed(t *testing.T, what string, err error, allowed ...error) {
	t.Helper()
	if err == nil {
		return
	}
	for _, a := range append(allowed, ErrCorrupt, pager.ErrBadPage) {
		if errors.Is(err, a) {
			return
		}
	}
	t.Fatalf("%s: untyped error %v", what, err)
}

func hostilePage(t *testing.T, data []byte) {
	const pageSize = 128
	page := make([]byte, pageSize)
	copy(page, data)
	open := func() *Tree {
		d := pager.NewDisk(pageSize)
		id, err := d.Alloc()
		if err == nil {
			err = d.Write(id, page)
		}
		if err != nil {
			t.Fatal(err)
		}
		return Open(d, id, 1)
	}
	tr := open()
	for _, key := range [][]byte{nil, []byte("b"), []byte("m"), {0xff, 0xff}} {
		if c, err := newCursor(page); err == nil && !c.leaf {
			_, err = c.childFor(key)
			typed(t, "childFor", err)
		}
		_, err := tr.Get(key)
		typed(t, "Get", err, ErrNotFound)
		it := tr.Seek(key, nil)
		for n := 0; it.Valid(); it.Next() {
			if n++; n > pageSize {
				t.Fatalf("an Iter walk of a %d-byte page yields more than %d keys", pageSize, pageSize)
			}
		}
		typed(t, "Iter", it.Err())
		typed(t, "Scan", tr.Scan(key, nil, func(_, _ []byte) bool { return true }))

		ins := open()
		typed(t, "Insert", ins.Insert(key, []byte("v")))
		typed(t, "Insert", ins.Insert(bytes.Repeat([]byte("k"), maxItem(pageSize)), nil))
		typed(t, "Delete", open().Delete(key), ErrNotFound)
	}
}

// fuzzBytes hands out the fuzz input a byte at a time, then zeroes.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// key is a key of one to eight bytes: a letter from the input, then
// some of "xyz" so that lengths vary.
func (b *fuzzBytes) key() string {
	return string(rune('a'+b.next()%26)) + "xyzxyzx"[:b.next()%8]
}

func splices(t *testing.T, data []byte) {
	b := fuzzBytes(data)
	pageSize := 128 << (b.next() % 2)
	value := func(key string) string {
		return string(bytes.Repeat([]byte{byte(b.next())}, b.next()%(maxItem(pageSize)-len(key)+1)))
	}
	oracle := map[string]string{}
	for n := b.next() % 64; len(oracle) < n && len(b) > 0; {
		k := b.key()
		oracle[k] = value(k)
	}
	keys := make([]string, 0, len(oracle))
	for k := range oracle {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := pager.NewDisk(pageSize)
	tr := loadTree(t, d, keys, func() []string {
		vals := make([]string, len(keys))
		for i, k := range keys {
			vals[i] = oracle[k]
		}
		return vals
	}())

	touched := map[string]bool{}
	for len(b) > 0 {
		op, k := b.next(), b.key()
		touched[k] = true
		if op%3 == 0 {
			_, ok := oracle[k]
			if err := tr.Delete([]byte(k)); ok != (err == nil) || err != nil && !errors.Is(err, ErrNotFound) {
				t.Fatalf("Delete(%q): %v; the map holds it: %v", k, err, ok)
			}
			delete(oracle, k)
			continue
		}
		v := value(k)
		if err := tr.Insert([]byte(k), []byte(v)); err != nil {
			t.Fatalf("Insert(%q): %v", k, err)
		}
		oracle[k] = v
	}

	matchesOracle(t, tr, oracle)
	for k := range touched {
		if _, ok := oracle[k]; !ok {
			if v, err := tr.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get(%q) of a deleted key = %q, %v", k, v, err)
			}
		}
	}
	want := make([]string, 0, len(oracle))
	for k, v := range oracle {
		want = append(want, fmt.Sprintf("%q=%q", k, v))
	}
	sort.Strings(want)
	var got []string
	it := tr.Seek(nil, nil)
	for ; it.Valid(); it.Next() {
		got = append(got, fmt.Sprintf("%q=%q", it.Key(), it.Val()))
	}
	if it.Err() != nil || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Iter walk: %v, %v; the map holds %v", got, it.Err(), want)
	}
	if pages, err := tr.Pages(nil); err != nil || pages != d.NumPages() {
		t.Fatalf("Pages = %d, %v; the disk holds %d", pages, err, d.NumPages())
	}
}
