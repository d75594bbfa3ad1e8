package btree

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/pager"
)

// FuzzDecodeNode feeds arbitrary bytes to the page decoder. A page is
// either refused as ErrCorrupt or decoded into a node no larger than
// the page it came from (no length field is trusted with an
// allocation), and for accepted pages encode∘decode is a fixpoint: the
// re-encoded image decodes and encodes to the same bytes.
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
		nd, err := decodeNode(page)
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
		again, err := decodeNode(first)
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
