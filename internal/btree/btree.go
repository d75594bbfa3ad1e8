// Package btree implements a page-based B+tree with variable-length byte
// keys and values over the simulated disk of internal/pager.
//
// Section 4.1 of "Querying Network Directories" assumes atomic queries
// are supported "with the help of B-tree indices for integer and
// distinguishedName filters"; this package provides those indexes. The
// directory store builds one tree over reverse-DN keys (making the sub
// scope a single contiguous range scan) and one over composite
// (attribute, value, reverse-DN) keys for attribute filters, and keeps
// entry-level updates in a third, the overlay. It is the repository's
// only tree: a new store generation gets copy-on-write by opening the
// same trees over a pager.Disk.Fork of its parent's disk.
//
// A tree is made in one of two ways. Build bulk-loads it (Loader): the
// keys arrive sorted, leaves are packed left to right and every page is
// written once. Insert and Delete are for the writes that follow, on a
// fork. Both make the same node layout, so every reader serves either.
//
// Every page is read where it lies, through pager.Disk.View, and the
// tree keeps no page in memory, so what a read costs depends only on
// the read and the tree. Interior pages count as resident and are never charged; every
// leaf a read touches is charged one page read, to the reader's meter
// and the disk's counters, like a list page. Get copies out only the
// value, Scan's callback gets views of the leaf that are valid for the
// call, and the pull Iter keeps a private copy of its leaf. Insert and
// Delete decode the leaf they edit from its view and write each node
// they change straight back to the disk, so nothing is ever held dirty.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/pager"
)

// Tree is a B+tree. Keys are unique; Insert of an existing key replaces
// its value. A Tree holds no pages, only its root and key count: any
// number of goroutines may read it at once, and Insert and Delete are
// for one writer with no reader beside it, on a disk that is not
// sealed (a fork).
type Tree struct {
	disk *pager.Disk
	root pager.PageID
	n    int    // number of keys
	buf  []byte // Insert and Delete encode a node here before writing it
}

// Errors returned by tree operations.
var (
	ErrNotFound = errors.New("btree: key not found")
	ErrTooBig   = errors.New("btree: key/value exceeds page capacity")
	// ErrCorrupt marks a page image that does not decode as a tree node:
	// a key, value or child pointer that runs past the end of the page.
	ErrCorrupt = errors.New("btree: corrupt page")
)

// New creates an empty tree on disk: one empty leaf.
func New(disk *pager.Disk) (*Tree, error) {
	t := &Tree{disk: disk}
	var err error
	if t.root, err = t.alloc(&node{leaf: true}); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() int { return t.n }

// Root returns the root page id, for snapshot manifests.
func (t *Tree) Root() pager.PageID { return t.root }

// Open attaches to a tree previously built on disk, identified by its
// root page and key count (from Root/Len).
func Open(disk *pager.Disk, root pager.PageID, n int) *Tree {
	return &Tree{disk: disk, root: root, n: n}
}

// node is the decoded form of a tree page: what Insert and Delete edit
// and what Iter walks. The loader writes the same layout without
// building one, and Get, Scan and the descent read it in place.
//
// Page layout:
//
//	byte 0:      1 if leaf
//	bytes 1..2:  number of keys (uint16)
//	bytes 3..6:  next-leaf page id (leaves) or first child id (interior)
//	then per key:
//	  uvarint klen, key bytes,
//	  leaf:     uvarint vlen, value bytes
//	  interior: uint32 child page id (subtree with keys >= this key)
type node struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte       // leaf only; len == len(keys)
	children []pager.PageID // interior only; len == len(keys)+1
	next     pager.PageID   // leaf chain
}

func (nd *node) encodedSize() int {
	sz := 7
	for i, k := range nd.keys {
		sz += uvarintLen(uint64(len(k))) + len(k)
		if nd.leaf {
			sz += uvarintLen(uint64(len(nd.vals[i]))) + len(nd.vals[i])
		} else {
			sz += 4
		}
	}
	return sz
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func (nd *node) encode(page []byte) {
	for i := range page {
		page[i] = 0
	}
	if nd.leaf {
		page[0] = 1
	}
	binary.LittleEndian.PutUint16(page[1:], uint16(len(nd.keys)))
	if nd.leaf {
		binary.LittleEndian.PutUint32(page[3:], uint32(nd.next))
	} else {
		binary.LittleEndian.PutUint32(page[3:], uint32(nd.children[0]))
	}
	off := 7
	for i, k := range nd.keys {
		off += binary.PutUvarint(page[off:], uint64(len(k)))
		off += copy(page[off:], k)
		if nd.leaf {
			off += binary.PutUvarint(page[off:], uint64(len(nd.vals[i])))
			off += copy(page[off:], nd.vals[i])
		} else {
			binary.LittleEndian.PutUint32(page[off:], uint32(nd.children[i+1]))
			off += 4
		}
	}
}

// decodeNode parses a page image. Pages reach it from snapshot and
// checkpoint files as well as from the tree's own writes, so every
// length is checked against the page before it is used: a malformed
// page is ErrCorrupt, never a panic or an allocation past the page size.
//
// The node outlives the view it was read from (a write to that page
// reuses the bytes), so it cannot point into the page: its keys and values are views of one private
// copy of the page's used bytes. One allocation per page, not one per
// key, because allocation and collection are the larger part of what a
// read costs. For the same reason a leaf decoded for Iter leaves out
// the items it will not visit, those whose keys sort before
// from (nil keeps all, and an interior node is always whole): the copy
// starts at the first item kept.
func decodeNode(page, from []byte) (*node, error) {
	if len(page) < 7 {
		return nil, fmt.Errorf("%w: %d-byte page", ErrCorrupt, len(page))
	}
	leaf := page[0] == 1
	n := int(binary.LittleEndian.Uint16(page[1:]))
	skip, start := 0, 7 // index and offset of the first item kept
	end, ok := 7, false
	for i := 0; i < n; i++ {
		var k []byte
		if k, end, ok = lenPrefixed(page, end); !ok {
			return nil, fmt.Errorf("%w (key %d)", ErrCorrupt, i)
		}
		if leaf {
			if _, end, ok = lenPrefixed(page, end); !ok {
				return nil, fmt.Errorf("%w (val %d)", ErrCorrupt, i)
			}
			if skip == i && bytes.Compare(k, from) < 0 {
				skip, start = i+1, end
			}
		} else if end += 4; end > len(page) {
			return nil, fmt.Errorf("%w (child %d)", ErrCorrupt, i+1)
		}
	}

	// The item slices have room for the one item an Insert adds.
	buf := bytes.Clone(page[start:end])
	nd := &node{leaf: leaf, keys: make([][]byte, n-skip, n-skip+1)}
	first := pager.PageID(binary.LittleEndian.Uint32(page[3:]))
	if leaf {
		nd.next = first
		nd.vals = make([][]byte, n-skip, n-skip+1)
	} else {
		nd.children = make([]pager.PageID, 1, n+1)
		nd.children[0] = first
	}
	off := 0
	for i := range nd.keys {
		nd.keys[i], off, _ = lenPrefixed(buf, off)
		if leaf {
			nd.vals[i], off, _ = lenPrefixed(buf, off)
		} else {
			nd.children = append(nd.children, pager.PageID(binary.LittleEndian.Uint32(buf[off:])))
			off += 4
		}
	}
	return nd, nil
}

// lenPrefixed returns the byte string at page[off:] (a uvarint length,
// then that many bytes) as a view of page, and the offset just past it;
// ok is false if the string runs past the end of the page.
func lenPrefixed(page []byte, off int) (b []byte, next int, ok bool) {
	n, m := binary.Uvarint(page[off:])
	if m <= 0 || n > uint64(len(page)-off-m) {
		return nil, 0, false
	}
	off += m
	next = off + int(n)
	return page[off:next:next], next, true
}

// page returns a view of page id. A leaf is charged one read, to m (nil
// = no query's) and to the disk's counters; an interior page counts as
// resident and is charged nothing. The rule makes a read's cost a
// function of the read and the tree alone (DESIGN.md §8).
func (t *Tree) page(id pager.PageID, m *pager.Meter) ([]byte, error) {
	page, err := t.disk.View(id)
	if err == nil && page[0] == 1 {
		t.disk.CountRead(id, m)
	}
	return page, err
}

// interior reports whether a page image is an interior node; anything
// else is read as a leaf, which refuses a page too short for a header.
func interior(page []byte) bool { return len(page) >= 7 && page[0] != 1 }

// load decodes page id whole, charged as page charges it.
func (t *Tree) load(id pager.PageID, m *pager.Meter) (*node, error) {
	page, err := t.page(id, m)
	if err != nil {
		return nil, err
	}
	return decodeNode(page, nil)
}

// write encodes nd onto page id.
func (t *Tree) write(id pager.PageID, nd *node) error {
	if t.buf == nil {
		t.buf = make([]byte, t.disk.PageSize())
	}
	page := t.buf[:nd.encodedSize()]
	nd.encode(page)
	return t.disk.Write(id, page)
}

// alloc writes nd onto a fresh page.
func (t *Tree) alloc(nd *node) (pager.PageID, error) {
	id, err := t.disk.Alloc()
	if err != nil {
		return 0, err
	}
	return id, t.write(id, nd)
}

// splitPoint returns the key index at which to split an overflowing
// node so both halves' encoded sizes are near-balanced.
func (nd *node) splitPoint() int {
	itemSize := func(i int) int {
		sz := uvarintLen(uint64(len(nd.keys[i]))) + len(nd.keys[i])
		if nd.leaf {
			return sz + uvarintLen(uint64(len(nd.vals[i]))) + len(nd.vals[i])
		}
		return sz + 4
	}
	total := 0
	for i := range nd.keys {
		total += itemSize(i)
	}
	acc := 0
	for i := range nd.keys {
		acc += itemSize(i)
		if acc >= total/2 {
			if i+1 >= len(nd.keys) {
				return len(nd.keys) - 1
			}
			return i + 1
		}
	}
	return len(nd.keys) / 2
}

// childIndex returns the index of the child subtree that may contain key:
// the last separator <= key, plus one.
func (nd *node) childIndex(key []byte) int {
	lo, hi := 0, len(nd.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(nd.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex returns (position, found) of key within a leaf.
func (nd *node) leafIndex(key []byte) (int, bool) {
	lo, hi := 0, len(nd.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(nd.keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(nd.keys) && bytes.Equal(nd.keys[lo], key)
}

// Get returns the value stored under key.
func (t *Tree) Get(key []byte) ([]byte, error) {
	return t.GetMetered(key, nil)
}

// GetMetered is Get with per-query I/O attribution: the leaf it reads is
// charged to m (see page). Safe for concurrent readers (the meter is
// atomic). The leaf is searched where it lies; the value returned is the
// caller's own copy, the one allocation a hit makes.
func (t *Tree) GetMetered(key []byte, m *pager.Meter) ([]byte, error) {
	_, page, err := t.leaf(key, m)
	if err != nil {
		return nil, err
	}
	v, err := leafGet(page, key)
	return bytes.Clone(v), err
}

// leafGet searches a leaf page image in place for key and returns its
// value as a view of the page, or ErrNotFound at the first larger key.
func leafGet(page, key []byte) ([]byte, error) {
	c, err := newLeafCursor(page)
	if err != nil {
		return nil, err
	}
	for {
		if ok, err := c.next(); err != nil {
			return nil, err
		} else if !ok {
			return nil, ErrNotFound
		}
		switch bytes.Compare(c.key, key) {
		case 0:
			return c.val, nil
		case 1:
			return nil, ErrNotFound
		}
	}
}

// leaf descends from the root to the leaf that may hold key and returns
// its page id and a view of it. Choosing a child takes one pass over an
// interior page's separators where they lie (childOnPage), not a
// private copy of the page.
func (t *Tree) leaf(key []byte, m *pager.Meter) (pager.PageID, []byte, error) {
	id := t.root
	for {
		page, err := t.page(id, m)
		if err != nil || !interior(page) {
			return id, page, err
		}
		if id, err = childOnPage(page, key); err != nil {
			return 0, nil, err
		}
	}
}

// leafCursor reads a leaf page image in place, item by item. Like
// decodeNode it checks each length against the page before using it,
// but only for the items it reaches: a read stops where its answer is.
// key and val are views of the page.
type leafCursor struct {
	page     []byte
	n, i     int // items on the page, items read
	off      int
	key, val []byte
}

func newLeafCursor(page []byte) (leafCursor, error) {
	if len(page) < 7 || page[0] != 1 {
		return leafCursor{}, fmt.Errorf("%w: not a leaf page", ErrCorrupt)
	}
	return leafCursor{page: page, n: int(binary.LittleEndian.Uint16(page[1:])), off: 7}, nil
}

// next reads the following item into key and val; false past the last.
func (c *leafCursor) next() (bool, error) {
	if c.i >= c.n {
		return false, nil
	}
	var ok bool
	if c.key, c.off, ok = lenPrefixed(c.page, c.off); !ok {
		return false, fmt.Errorf("%w (key %d)", ErrCorrupt, c.i)
	}
	if c.val, c.off, ok = lenPrefixed(c.page, c.off); !ok {
		return false, fmt.Errorf("%w (val %d)", ErrCorrupt, c.i)
	}
	c.i++
	return true, nil
}

// nextLeaf is the page id of the leaf after this one (0 for the last).
func (c *leafCursor) nextLeaf() pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(c.page[3:]))
}

// childOnPage is childIndex on an interior page image: the child after
// the last separator <= key. It checks what it reads — the separators up
// to the one that ends the search — against the page, like decodeNode.
func childOnPage(page, key []byte) (pager.PageID, error) {
	n := int(binary.LittleEndian.Uint16(page[1:]))
	child := pager.PageID(binary.LittleEndian.Uint32(page[3:]))
	off := 7
	for i := 0; i < n; i++ {
		sep, next, ok := lenPrefixed(page, off)
		if !ok || next+4 > len(page) {
			return 0, fmt.Errorf("%w (separator %d)", ErrCorrupt, i)
		}
		if bytes.Compare(sep, key) > 0 {
			break
		}
		child = pager.PageID(binary.LittleEndian.Uint32(page[next:]))
		off = next + 4
	}
	return child, nil
}

// MaxItem returns the largest key+value size the tree accepts for its
// page size. The bound guarantees a byte-balanced split always fits:
// after an overflow the node holds at most pageSize + MaxItem payload
// bytes; the left half exceeds half the total by at most one item, so
// it stays within pageSize/2 + 1.5*MaxItem + header <= pageSize when
// MaxItem <= pageSize/3 - 8. The loader enforces the same bound, so a
// loaded tree takes inserts.
func (t *Tree) MaxItem() int { return maxItem(t.disk.PageSize()) }

func maxItem(pageSize int) int { return pageSize/3 - 8 }

// Insert stores (key, value), replacing any existing value for key. It
// is the write path of a forked generation; a whole tree is bulk-loaded
// (Loader).
func (t *Tree) Insert(key, value []byte) error {
	if len(key)+len(value) > t.MaxItem() {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	sep, right, replaced, err := t.insert(t.root, key, value)
	if err != nil {
		return err
	}
	if !replaced {
		t.n++
	}
	if right != 0 {
		// Root split: new interior root.
		newRoot := &node{children: []pager.PageID{t.root, right}, keys: [][]byte{sep}}
		id, err := t.alloc(newRoot)
		if err != nil {
			return err
		}
		t.root = id
	}
	return nil
}

// insert descends into page id. On split it returns the separator key
// and the new right sibling's page id. An interior page is decoded, and
// rewritten, only when the child below it split; the leaf always is.
// The node is encoded before this returns, so it may hold key, value
// and views of its own decoded copy.
func (t *Tree) insert(id pager.PageID, key, value []byte) (sep []byte, right pager.PageID, replaced bool, err error) {
	page, err := t.page(id, nil)
	if err != nil {
		return nil, 0, false, err
	}
	var nd *node
	if interior(page) {
		child, err := childOnPage(page, key)
		if err != nil {
			return nil, 0, false, err
		}
		var csep []byte
		var cright pager.PageID
		if csep, cright, replaced, err = t.insert(child, key, value); err != nil || cright == 0 {
			return nil, 0, replaced, err
		}
		// The view is still this page's: the insert below wrote and
		// allocated other pages only.
		if nd, err = decodeNode(page, nil); err != nil {
			return nil, 0, false, err
		}
		ci := nd.childIndex(key)
		nd.keys = slices.Insert(nd.keys, ci, csep)
		nd.children = slices.Insert(nd.children, ci+1, cright)
	} else {
		if nd, err = decodeNode(page, nil); err != nil {
			return nil, 0, false, err
		}
		i, found := nd.leafIndex(key)
		if replaced = found; found {
			nd.vals[i] = value
		} else {
			nd.keys = slices.Insert(nd.keys, i, key)
			nd.vals = slices.Insert(nd.vals, i, value)
		}
	}
	if nd.encodedSize() <= t.disk.PageSize() {
		return nil, 0, replaced, t.write(id, nd)
	}
	// Split: move the upper half to a new right sibling. The split point
	// balances bytes, not key counts — with variable-length keys a count
	// split can leave one half still oversized.
	mid := nd.splitPoint()
	sep = nd.keys[mid]
	var rightNode *node
	if nd.leaf {
		rightNode = &node{leaf: true, keys: nd.keys[mid:], vals: nd.vals[mid:], next: nd.next}
		nd.keys, nd.vals = nd.keys[:mid], nd.vals[:mid]
	} else {
		// The separator at mid moves up; children split around it.
		rightNode = &node{keys: nd.keys[mid+1:], children: nd.children[mid+1:]}
		nd.keys, nd.children = nd.keys[:mid], nd.children[:mid+1]
	}
	rid, err := t.alloc(rightNode)
	if err != nil {
		return nil, 0, false, err
	}
	if nd.leaf {
		nd.next = rid
	}
	if err := t.write(id, nd); err != nil {
		return nil, 0, false, err
	}
	return sep, rid, replaced, nil
}

// Delete removes key. Pages are not rebalanced or reclaimed (lazy
// deletion); the directory workload is read-mostly.
func (t *Tree) Delete(key []byte) error {
	id, page, err := t.leaf(key, nil)
	if err != nil {
		return err
	}
	nd, err := decodeNode(page, nil)
	if err != nil {
		return err
	}
	i, ok := nd.leafIndex(key)
	if !ok {
		return ErrNotFound
	}
	nd.keys = slices.Delete(nd.keys, i, i+1)
	nd.vals = slices.Delete(nd.vals, i, i+1)
	t.n--
	return t.write(id, nd)
}

// Scan calls fn for each (key, value) with lo <= key < hi in key order,
// stopping if fn returns false. A nil hi means "to the end". key and
// value are read-only views of the leaf, valid only for the call: fn
// copies what it keeps.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.ScanMetered(lo, hi, nil, fn)
}

// ScanMetered is Scan with per-query I/O attribution (see GetMetered).
// It walks each leaf in place and reads the next leaf of the chain only
// when this one is used up, so it touches, and is charged for, the
// pages Iter would, and allocates nothing.
func (t *Tree) ScanMetered(lo, hi []byte, m *pager.Meter, fn func(key, value []byte) bool) error {
	_, page, err := t.leaf(lo, m)
	for err == nil {
		var next pager.PageID
		if next, err = scanLeaf(page, lo, hi, fn); err != nil || next == 0 {
			break
		}
		lo = nil
		page, err = t.page(next, m)
	}
	return err
}

// scanLeaf calls fn with the items of one leaf page with lo <= key < hi
// and returns the page id of the leaf after it, or 0 when the scan ends
// here: at the end of the chain, at hi, or because fn said stop.
func scanLeaf(page, lo, hi []byte, fn func(key, value []byte) bool) (pager.PageID, error) {
	c, err := newLeafCursor(page)
	if err != nil {
		return 0, err
	}
	for {
		if ok, err := c.next(); err != nil {
			return 0, err
		} else if !ok {
			return c.nextLeaf(), nil
		}
		if bytes.Compare(c.key, lo) < 0 {
			continue
		}
		if hi != nil && bytes.Compare(c.key, hi) >= 0 || !fn(c.key, c.val) {
			return 0, nil
		}
	}
}

// Iter is a pull iterator over the tree's keys in ascending order, which
// the store's merged scans pull from beside a second stream. Keys and
// values are read-only views of the iterator's copy of a leaf; they stay
// valid after Next. The zero Iter is an exhausted iterator.
type Iter struct {
	t   *Tree
	m   *pager.Meter
	nd  *node // current leaf; nil at the end of the tree or after an error
	i   int
	err error
}

// Seek positions an iterator at the first key >= lo. The leaf it lands
// on and every later leaf step are charged to m (see page). Safe for
// concurrent readers, like GetMetered.
func (t *Tree) Seek(lo []byte, m *pager.Meter) Iter {
	it := Iter{t: t, m: m}
	_, page, err := t.leaf(lo, m)
	if err != nil {
		it.err = err
		return it
	}
	if it.nd, it.err = decodeNode(page, lo); it.err != nil {
		return it
	}
	it.i, _ = it.nd.leafIndex(lo)
	it.settle()
	return it
}

// settle follows the leaf chain until the position holds a key (lazy
// deletion can leave empty leaves behind).
func (it *Iter) settle() {
	for it.nd != nil && it.i >= len(it.nd.keys) {
		next := it.nd.next
		it.nd, it.i = nil, 0
		if next != 0 {
			it.nd, it.err = it.t.load(next, it.m)
			if it.nd != nil && !it.nd.leaf {
				it.nd, it.err = nil, fmt.Errorf("%w: the leaf chain reaches interior page %d", ErrCorrupt, next)
			}
		}
	}
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter) Valid() bool { return it.nd != nil }

// Err returns the read error that stopped the iterator, if any.
func (it *Iter) Err() error { return it.err }

// Key returns the current key; the iterator must be Valid.
func (it *Iter) Key() []byte { return it.nd.keys[it.i] }

// Val returns the current value; the iterator must be Valid.
func (it *Iter) Val() []byte { return it.nd.vals[it.i] }

// Next advances to the following key. The iterator becomes invalid at
// the end of the tree, and stays so.
func (it *Iter) Next() {
	it.i++
	it.settle()
}

// ScanPrefix scans all keys beginning with prefix.
func (t *Tree) ScanPrefix(prefix []byte, fn func(key, value []byte) bool) error {
	hi := prefixUpperBound(prefix)
	return t.Scan(prefix, hi, fn)
}

// prefixUpperBound returns the smallest byte string greater than every
// string with the given prefix, or nil if there is none.
func prefixUpperBound(prefix []byte) []byte {
	hi := append([]byte(nil), prefix...)
	for i := len(hi) - 1; i >= 0; i-- {
		if hi[i] < 0xff {
			hi[i]++
			return hi[:i+1]
		}
	}
	return nil
}

// Pages counts the pages the tree occupies: its interior pages, level by
// level down from the root, then the leaf chain from the first leaf.
// Each leaf is charged to m, like any read's (see page).
func (t *Tree) Pages(m *pager.Meter) (int, error) {
	limit := t.disk.NumPages() // a walk past it is a cycle
	n := 0
	level := []pager.PageID{t.root}
	for {
		var below []pager.PageID
		for _, id := range level {
			nd, err := t.load(id, m)
			if err != nil {
				return 0, err
			}
			if nd.leaf {
				if len(below) > 0 {
					return 0, fmt.Errorf("%w: leaf page %d beside interior pages", ErrCorrupt, id)
				}
				break
			}
			below = append(below, nd.children...)
		}
		if len(below) == 0 {
			break
		}
		if n += len(level); n > limit {
			return 0, fmt.Errorf("%w: interior pages form a cycle", ErrCorrupt)
		}
		level = below
	}
	for id := level[0]; id != 0; n++ {
		if n > limit {
			return 0, fmt.Errorf("%w: the leaf chain forms a cycle", ErrCorrupt)
		}
		page, err := t.page(id, m)
		if err != nil {
			return 0, err
		}
		if interior(page) {
			return 0, fmt.Errorf("%w: the leaf chain reaches interior page %d", ErrCorrupt, id)
		}
		id = pager.PageID(binary.LittleEndian.Uint32(page[3:]))
	}
	return n, nil
}
