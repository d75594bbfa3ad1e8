package btree

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/pager"
)

// FuzzDecodeNode feeds arbitrary bytes to the page decoder. A page is
// either refused as ErrCorrupt or decoded into a node no larger than
// the page it came from (no length field is trusted with an
// allocation), and for accepted pages encode∘decode is a fixpoint: the
// re-encoded image decodes and encodes to the same bytes.
//
// The read paths do less than a whole decode — childOnPage picks a
// child from an interior page in place, Get (leafGet) and Scan
// (scanLeaf) walk a leaf in place, and Iter decodes a leaf from the
// sought key on — so each is held to the whole decode here: on any
// image they return ErrCorrupt or a result, never a panic, and on an
// accepted image whose keys ascend, as a tree writes them, the result is
// the one the whole node gives (childIndex's child; leafIndex's value;
// the items from leafIndex on, then the next leaf).
func FuzzDecodeNode(f *testing.F) {
	f.Add([]byte{})
	f.Add(malformedLeaf(64))
	leaf := &node{leaf: true, next: 9, keys: [][]byte{[]byte("a"), []byte("bb")}, vals: [][]byte{[]byte("1"), nil}}
	img := make([]byte, 64)
	leaf.encode(img)
	f.Add(img)
	interior := &node{keys: [][]byte{[]byte("m")}, children: []pager.PageID{3, 4}}
	img = make([]byte, 64)
	interior.encode(img)
	f.Add(img)
	f.Fuzz(func(t *testing.T, page []byte) {
		nd, err := decodeNode(page, nil)
		probes := [][]byte{nil, []byte("b"), []byte("m"), {0xff, 0xff}}
		sorted := nd != nil && slices.IsSortedFunc(nd.keys, bytes.Compare)
		if sorted {
			probes = append(probes, nd.keys...)
		}
		for _, key := range probes {
			if len(page) >= 7 && page[0] != 1 {
				child, cerr := childOnPage(page, key)
				if cerr != nil && !errors.Is(cerr, ErrCorrupt) {
					t.Fatalf("untyped childOnPage error: %v", cerr)
				}
				if sorted && (cerr != nil || child != nd.children[nd.childIndex(key)]) {
					t.Fatalf("childOnPage(%q) = %d, %v; the decoded node picks %d", key, child, cerr, nd.children[nd.childIndex(key)])
				}
				continue
			}
			tail, terr := decodeNode(page, key)
			if (terr == nil) != (err == nil) {
				t.Fatalf("decode from %q: %v; whole decode: %v", key, terr, err)
			}
			val, gerr := leafGet(page, key)
			if gerr != nil && !errors.Is(gerr, ErrCorrupt) && !errors.Is(gerr, ErrNotFound) {
				t.Fatalf("untyped leafGet error: %v", gerr)
			}
			var scanned [][]byte
			next, serr := scanLeaf(page, key, nil, func(k, v []byte) bool {
				scanned = append(scanned, k, v)
				return true
			})
			if serr != nil && !errors.Is(serr, ErrCorrupt) {
				t.Fatalf("untyped scanLeaf error: %v", serr)
			}
			if !sorted {
				continue
			}
			i, found := nd.leafIndex(key)
			if tail.next != nd.next || !slices.EqualFunc(tail.keys, nd.keys[i:], bytes.Equal) || !slices.EqualFunc(tail.vals, nd.vals[i:], bytes.Equal) {
				t.Fatalf("decode from %q kept %d items, the whole leaf has %d from there", key, len(tail.keys), len(nd.keys)-i)
			}
			if (gerr == nil) != found || found && !bytes.Equal(val, nd.vals[i]) {
				t.Fatalf("leafGet(%q) = %q, %v; the decoded leaf holds it: %v", key, val, gerr, found)
			}
			var want [][]byte
			for j := i; j < len(nd.keys); j++ {
				want = append(want, nd.keys[j], nd.vals[j])
			}
			if serr != nil || next != nd.next || !slices.EqualFunc(scanned, want, bytes.Equal) {
				t.Fatalf("scanLeaf from %q: %d items, next %d, %v; the decoded leaf has %d from there, next %d",
					key, len(scanned)/2, next, serr, len(want)/2, nd.next)
			}
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if sz := nd.encodedSize(); sz > len(page) {
			t.Fatalf("decoded node needs %d bytes, page has %d", sz, len(page))
		}
		first := make([]byte, len(page))
		nd.encode(first)
		again, err := decodeNode(first, nil)
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		second := make([]byte, len(page))
		again.encode(second)
		if !bytes.Equal(first, second) {
			t.Fatal("encode(decode(page)) is not a fixpoint")
		}
	})
}
