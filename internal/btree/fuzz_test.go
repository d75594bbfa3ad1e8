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
// The read path does less than a whole decode — childOnPage picks a
// child from an interior page in place, and a leaf is decoded from the
// sought key on — so both are held to the whole decode here: on any
// image they return ErrCorrupt or a result, and on an accepted image
// whose keys ascend, as a tree writes them, the result is the one the
// whole node gives (childIndex's child, the items from leafIndex on).
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
			if !sorted {
				continue
			}
			i, _ := nd.leafIndex(key)
			if tail.next != nd.next || !slices.EqualFunc(tail.keys, nd.keys[i:], bytes.Equal) || !slices.EqualFunc(tail.vals, nd.vals[i:], bytes.Equal) {
				t.Fatalf("decode from %q kept %d items, the whole leaf has %d from there", key, len(tail.keys), len(nd.keys)-i)
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
