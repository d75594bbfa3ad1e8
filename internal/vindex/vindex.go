// Package vindex implements the paged flat vector index that backs
// knn(attr, vec, k) atomic filters: for each vector-typed attribute, a
// compact list of (reverse-DN key, master offset, embedding) postings
// in reverse-DN key order, stored as a plist byte stream on the store's
// pager.Disk.
//
// The key order is the whole design. Because an ancestor's reverse-DN
// key is a prefix of its descendants' keys, the postings of any subtree
// form one contiguous range of the list — exactly the property the
// master list has for entries — so a scoped knn search reads only the
// pages overlapping the scope, located through a sparse in-memory fence
// array (one (key, offset) pair every fenceEvery postings). Every page
// the search touches goes through a pager read handle carrying the
// query's meter, so per-operator I/O accounting stays exact.
//
// The index is exact, not approximate: Search scans every posting in
// the range and keeps the k nearest by squared L2 distance, ties broken
// by reverse-DN key. Results are therefore byte-identical to a
// brute-force scan over the scoped entry set, which is the correctness
// oracle the store's evaluation tests pin.
//
// Like the B+trees it lives beside, the index is immutable once built:
// core.Update rebuilds it on the next snapshot's fresh disk, and the
// snapshot manifest round-trips it through Checkpoint/Recover (the
// postings travel inside the disk image; Manifest carries the page
// list, fences and dimension).
package vindex

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/pager"
	"repro/internal/plist"
)

// fenceEvery is the sparse-index granularity: one fence per this many
// postings. A seek over-reads at most the postings between two fences.
const fenceEvery = 16

// Posting is one entry's contribution to the index: its reverse-DN key,
// its master-list stream offset (so winners can be fetched without a
// DN-index probe), and all the entry's vectors for the indexed
// attribute (multi-valued attributes contribute several; an entry's
// distance to a query is the minimum over them).
type Posting struct {
	// Key is the entry's reverse-DN key.
	Key string
	// Off is the entry's master-list stream offset.
	Off int64
	// Vecs holds the entry's embeddings for the indexed attribute, each
	// of the index's dimension.
	Vecs [][]float32
}

// Index is an immutable flat vector index over one attribute.
type Index struct {
	attr   string
	dim    int
	list   *plist.List
	fenceK []string // fence keys, ascending
	fenceO []int64  // stream offset of the fenced posting
}

// Attr returns the indexed attribute name.
func (ix *Index) Attr() string { return ix.attr }

// Dim returns the embedding dimension.
func (ix *Index) Dim() int { return ix.dim }

// Count returns the number of postings (entries with the attribute).
func (ix *Index) Count() int64 { return ix.list.Count() }

// Pages returns the number of disk pages the posting list occupies.
func (ix *Index) Pages() int { return ix.list.Pages() }

// Bytes returns the posting stream's total length.
func (ix *Index) Bytes() int64 { return ix.list.Size() }

// Free releases the index's pages back to the device.
func (ix *Index) Free() error { return ix.list.Free() }

// Builder accumulates postings in ascending key order and writes the
// paged list. One Builder exists per vector attribute during a store
// build; Add is called once per entry holding the attribute, in master
// order, so the posting list inherits the master list's key order.
type Builder struct {
	attr   string
	dim    int
	w      *plist.Writer
	fenceK []string
	fenceO []int64
	n      int64
	last   string
	err    error
}

// NewBuilder starts an index for attr with embedding dimension dim on
// disk.
func NewBuilder(disk *pager.Disk, attr string, dim int) *Builder {
	return &Builder{attr: attr, dim: dim, w: plist.NewWriter(disk)}
}

// Add appends one entry's posting. Keys must be strictly increasing
// (one posting per entry, master order); vectors of a dimension other
// than the index's are rejected.
func (b *Builder) Add(key string, off int64, vecs [][]float32) error {
	if b.err != nil {
		return b.err
	}
	if b.n > 0 && key <= b.last {
		b.err = fmt.Errorf("vindex: unsorted add: %q after %q", key, b.last)
		return b.err
	}
	if len(vecs) == 0 {
		return nil
	}
	aux := make([]int64, 0, len(vecs)*b.dim)
	for _, v := range vecs {
		if len(v) != b.dim {
			b.err = fmt.Errorf("vindex: %s vector has %d components, index dimension is %d", b.attr, len(v), b.dim)
			return b.err
		}
		for _, f := range v {
			aux = append(aux, int64(math.Float32bits(f)))
		}
	}
	if b.n%fenceEvery == 0 {
		b.fenceK = append(b.fenceK, key)
		b.fenceO = append(b.fenceO, b.w.Offset())
	}
	if err := b.w.Append(&plist.Record{Key: key, A: off, Aux: aux}); err != nil {
		b.err = err
		return err
	}
	b.n++
	b.last = key
	return nil
}

// Close finishes the list and returns the completed index.
func (b *Builder) Close() (*Index, error) {
	if b.err != nil {
		return nil, b.err
	}
	l, err := b.w.Close()
	if err != nil {
		return nil, err
	}
	return &Index{attr: b.attr, dim: b.dim, list: l, fenceK: b.fenceK, fenceO: b.fenceO}, nil
}

// SquaredL2 returns the squared Euclidean distance between two vectors
// of equal length, accumulated in float64 in component order. Both the
// index search and the brute-force oracle call this one function, which
// is what makes their distances — and hence their tie-breaks and final
// answers — bit-identical.
func SquaredL2(a, b []float32) float64 {
	var sum float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		sum += d * d
	}
	return sum
}

// Neighbor is one knn result: an entry key, its master offset, and its
// squared L2 distance to the query vector.
type Neighbor struct {
	// Key is the entry's reverse-DN key.
	Key string
	// Off is the entry's master-list stream offset.
	Off int64
	// Dist is the squared L2 distance to the query vector (the minimum
	// over the entry's vectors for multi-valued attributes).
	Dist float64
}

// ErrDim reports a query vector whose dimension does not match the
// index.
var ErrDim = errors.New("vindex: query dimension mismatch")

// Search returns the k postings in the key range [lo, hi) nearest to q,
// ordered by (distance, key) ascending. hi == "" means unbounded. An
// optional accept callback further filters candidates by key (the
// one-level scope test); nil accepts everything. Page reads are charged
// to m (nil = uncharged). Fewer than k results means the range held
// fewer candidates.
func (ix *Index) Search(lo, hi string, accept func(key string) bool, q []float32, k int, m *pager.Meter) ([]Neighbor, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("%w: query has %d components, index %q has %d", ErrDim, len(q), ix.attr, ix.dim)
	}
	if k < 1 || ix.list.Count() == 0 {
		return nil, nil
	}
	off := ix.seek(lo)
	rd, err := ix.list.MeteredReaderAt(off, m)
	if err != nil {
		return nil, err
	}
	top := NewCollector(k)
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if rec.Key < lo {
			continue // fence over-read before the range
		}
		if hi != "" && rec.Key >= hi {
			break
		}
		if accept != nil && !accept(rec.Key) {
			continue
		}
		dist, ok := ix.minDist(rec, q)
		if !ok {
			continue
		}
		top.Offer(Neighbor{Key: rec.Key, Off: rec.A, Dist: dist})
	}
	return top.Sorted(), nil
}

// minDist decodes a posting's vectors and returns the minimum squared
// L2 distance to q. ok is false for a malformed posting payload (wrong
// multiple of the dimension), which cannot happen through Builder.
func (ix *Index) minDist(rec *plist.Record, q []float32) (float64, bool) {
	if len(rec.Aux) == 0 || len(rec.Aux)%ix.dim != 0 {
		return 0, false
	}
	vec := make([]float32, ix.dim)
	best := math.Inf(1)
	for base := 0; base < len(rec.Aux); base += ix.dim {
		for i := 0; i < ix.dim; i++ {
			vec[i] = math.Float32frombits(uint32(rec.Aux[base+i]))
		}
		if d := SquaredL2(vec, q); d < best {
			best = d
		}
	}
	return best, true
}

// seek returns the stream offset of the latest fence at or before lo —
// the position from which a forward scan reaches the first posting with
// key >= lo after at most fenceEvery-1 skipped postings.
func (ix *Index) seek(lo string) int64 {
	i := sort.SearchStrings(ix.fenceK, lo)
	// fenceK[i] is the first fence >= lo; start one fence earlier unless
	// the fence key equals lo exactly.
	if i == len(ix.fenceK) || ix.fenceK[i] != lo {
		i--
	}
	if i < 0 {
		return 0
	}
	return ix.fenceO[i]
}

// RangeBytes estimates the posting-stream byte extent of the key range
// [lo, hi) from the fence array, for access-path cost comparison. The
// estimate errs high by up to two fence intervals.
func (ix *Index) RangeBytes(lo, hi string) int64 {
	start := ix.seek(lo)
	end := ix.list.Size()
	if hi != "" {
		if i := sort.SearchStrings(ix.fenceK, hi); i < len(ix.fenceO) {
			end = ix.fenceO[i]
		}
	}
	if end < start {
		return 0
	}
	return end - start
}

// Collector keeps the k best neighbors seen so far in a max-heap
// ordered by (distance, key): the root is the current worst, so a
// better candidate replaces it in O(log k). Both the index search and
// the store's brute-force scan accumulate through it, which pins one
// tie-break order for both access paths.
type Collector struct {
	k    int
	heap []Neighbor
}

// NewCollector returns an empty top-k accumulator.
func NewCollector(k int) *Collector { return &Collector{k: k} }

// worse reports whether a ranks after b: larger distance, or equal
// distance and larger key. The order is total because keys are unique.
func worse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Key > b.Key
}

// Offer considers one candidate, keeping it iff it ranks among the k
// best seen. A kept candidate's key is copied, so n.Key may be a list
// record's, which its reader reuses.
func (t *Collector) Offer(n Neighbor) {
	if len(t.heap) < t.k {
		n.Key = strings.Clone(n.Key)
		t.heap = append(t.heap, n)
		i := len(t.heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !worse(t.heap[i], t.heap[p]) {
				break
			}
			t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
			i = p
		}
		return
	}
	if !worse(t.heap[0], n) {
		return // candidate is no better than the current worst
	}
	n.Key = strings.Clone(n.Key)
	t.heap[0] = n
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(t.heap) && worse(t.heap[l], t.heap[w]) {
			w = l
		}
		if r < len(t.heap) && worse(t.heap[r], t.heap[w]) {
			w = r
		}
		if w == i {
			return
		}
		t.heap[i], t.heap[w] = t.heap[w], t.heap[i]
		i = w
	}
}

// Sorted returns the collected neighbors in (distance, key) ascending
// order.
func (t *Collector) Sorted() []Neighbor {
	out := append([]Neighbor(nil), t.heap...)
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}
