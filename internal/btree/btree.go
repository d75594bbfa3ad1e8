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
// fork. A node exists only as its page image, and one page codec
// (page.go) serves the loader, the edits and every reader.
//
// Every page is read where it lies, through pager.Disk.View, and the
// tree keeps no page in memory, so what a read costs depends only on
// the read and the tree. Interior pages count as resident and are never
// charged; every leaf a read touches is charged one page read, to the
// reader's meter and the disk's counters, like a list page. Get copies
// out only the value; Scan's callback and the pull Iter get views of
// the leaf, valid until that page is next written, which on a sealed
// disk is never. Insert and Delete splice each page they change into a
// scratch image by range copies and write it straight back to the
// disk, so nothing is ever held dirty.
package btree

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"sync"

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
	n    int // number of keys
}

// Errors returned by tree operations.
var (
	ErrNotFound = errors.New("btree: key not found")
	ErrTooBig   = errors.New("btree: key/value exceeds page capacity")
	// ErrCorrupt marks a page image that does not read as a tree node
	// (a key, value or child pointer that runs past the end of the page,
	// or a cell past the item bound) or page links that form a cycle.
	ErrCorrupt = errors.New("btree: corrupt page")
)

// New creates an empty tree on disk: one empty leaf.
func New(disk *pager.Disk) (*Tree, error) {
	t := &Tree{disk: disk}
	var err error
	if t.root, err = t.alloc(newPage(nil, true, 0, 0)); err != nil {
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

// alloc writes a page image onto a fresh page.
func (t *Tree) alloc(page []byte) (pager.PageID, error) {
	id, err := t.disk.Alloc()
	if err != nil {
		return 0, err
	}
	return id, t.disk.Write(id, page)
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
	_, c, ok, err := t.find(key, m, nil)
	if err != nil || !ok || !bytes.Equal(c.key, key) {
		return nil, cmp.Or(err, ErrNotFound)
	}
	return bytes.Clone(c.val), nil
}

// find descends to the leaf that may hold key (see leaf) and reads it up
// to the first key >= key: ok reports that c holds one, and either way
// c.at is where key belongs.
func (t *Tree) find(key []byte, m *pager.Meter, path *[]step) (id pager.PageID, c cursor, ok bool, err error) {
	id, page, err := t.leaf(key, m, path)
	if err == nil {
		c, err = leafCursor(page)
	}
	if err == nil {
		ok, err = c.seek(key)
	}
	if err != nil {
		return 0, cursor{}, false, err
	}
	return id, c, ok, nil
}

// leaf descends from the root to the leaf that may hold key and returns
// its page id and a view of it. Each interior page is searched where it
// lies, up to the separator that picks the child; path, if not nil, gets
// each one as a step. A descent longer than the disk has pages has met
// a cycle, which only a corrupt image holds.
func (t *Tree) leaf(key []byte, m *pager.Meter, path *[]step) (pager.PageID, []byte, error) {
	id := t.root
	for depth := 0; ; depth++ {
		page, err := t.page(id, m)
		if err != nil {
			return id, page, err
		}
		c, err := newCursor(page)
		if err != nil || c.leaf {
			return id, page, err
		}
		if depth > t.disk.NumPages() {
			return 0, nil, fmt.Errorf("%w: interior pages form a cycle", ErrCorrupt)
		}
		child, err := c.childFor(key)
		if err != nil {
			return 0, nil, err
		}
		if path != nil {
			*path = append(*path, step{id, c})
		}
		id = child
	}
}

// step is an interior page a descent passed: its id, and a cursor on it
// stopped where childFor stopped, which is where a new child's separator
// goes.
type step struct {
	id pager.PageID
	c  cursor
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

// scratch holds the page images Insert and Delete build. One pool of
// them serves every tree, so a tree costs no buffer of its own.
type scratch struct {
	path  []step // the interior pages above the leaf, root first
	cell  []byte // the cell an edit adds
	img   []byte // the edited page's image, which may overflow until split
	right []byte // a split's right half
	sep   []byte // the separator a split passes up to the parent
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// Insert stores (key, value), replacing any existing value for key. It
// is the write path of a forked generation; a whole tree is bulk-loaded
// (Loader). The leaf is spliced by range copies — its cells before key,
// the new cell, the cells after — and written straight back to the
// disk; an interior page is spliced the same way, and rewritten, only
// when the child below it split.
func (t *Tree) Insert(key, value []byte) error {
	if len(key)+len(value) > t.MaxItem() {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.path = s.path[:0]
	id, c, ok, err := t.find(key, nil, &s.path)
	if err != nil {
		return err
	}
	n, at, end := c.n+1, c.at, c.at // the new cell replaces page[at:end]
	replaced := ok && bytes.Equal(c.key, key)
	if replaced {
		n, end = c.n, c.off
	}
	s.cell = appendLeafCell(s.cell[:0], key, value)
	if s.img, err = splice(s.img, &c, at, end, n, s.cell); err != nil {
		return err
	}
	right, err := t.store(s, id)
	for i := len(s.path) - 1; i >= 0 && right != 0 && err == nil; i-- {
		// The child below split: its new sibling's separator goes where
		// the descent stopped this page's cursor.
		c := &s.path[i].c
		s.cell = appendInteriorCell(s.cell[:0], s.sep, right)
		if s.img, err = splice(s.img, c, c.at, c.at, c.n+1, s.cell); err == nil {
			right, err = t.store(s, s.path[i].id)
		}
	}
	if err != nil {
		return err
	}
	if !replaced {
		t.n++
	}
	if right != 0 {
		// Root split: a new interior root over the old root and its sibling.
		s.img = appendInteriorCell(newPage(s.img, false, 1, t.root), s.sep, right)
		root, err := t.alloc(s.img)
		if err != nil {
			return err
		}
		t.root = root
	}
	return nil
}

// store writes the page image in s.img onto page id, splitting it when
// it overflows the page. After a split it returns the new right
// sibling's page id, with the separator in s.sep.
func (t *Tree) store(s *scratch, id pager.PageID) (pager.PageID, error) {
	if len(s.img) <= t.disk.PageSize() {
		return 0, t.disk.Write(id, s.img)
	}
	return t.split(s, id)
}

// split writes the overflowing image in s.img as two pages, the lower
// half onto page id and the upper onto a new right sibling, whose id it
// returns, with the separator between them in s.sep. The split balances
// bytes, not key counts — with variable-length keys a count split can
// leave one half still oversized: the left half takes cells until it
// holds half the cell bytes, and the separator is the cell after them,
// or the last cell when they are all of them.
func (t *Tree) split(s *scratch, id pager.PageID) (pager.PageID, error) {
	c, _ := newCursor(s.img) // built from checked cells: it reads
	half := (len(s.img) - headerSize) / 2
	for ok, _ := c.next(); ok && c.off-headerSize < half; ok, _ = c.next() {
	}
	if c.i < c.n {
		c.next()
	}
	mid := c.i - 1 // the separator's cell, which c holds
	s.sep = append(s.sep[:0], c.key...)
	if c.leaf {
		// The separator's cell starts the right leaf, which the left
		// will link to.
		s.right = append(newPage(s.right, true, c.n-mid, c.link()), s.img[c.at:]...)
	} else {
		// The separator moves up; its child is the right page's first.
		s.right = append(newPage(s.right, false, c.n-mid-1, c.child), s.img[c.off:]...)
	}
	if max(c.at, len(s.right)) > t.disk.PageSize() {
		return 0, fmt.Errorf("%w: a cell exceeds the item bound", ErrCorrupt)
	}
	rid, err := t.disk.Alloc()
	if err != nil {
		return 0, err
	}
	link := c.link()
	if c.leaf {
		link = rid
	}
	putHeader(s.img, c.leaf, mid, link)
	if err := t.disk.Write(rid, s.right); err != nil {
		return 0, err
	}
	return rid, t.disk.Write(id, s.img[:c.at])
}

// Delete removes key. Pages are not rebalanced or reclaimed (lazy
// deletion); the directory workload is read-mostly.
func (t *Tree) Delete(key []byte) error {
	id, c, ok, err := t.find(key, nil, nil)
	if err != nil || !ok || !bytes.Equal(c.key, key) {
		return cmp.Or(err, ErrNotFound)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	if s.img, err = splice(s.img, &c, c.at, c.off, c.n-1, nil); err != nil {
		return err
	}
	t.n--
	return t.disk.Write(id, s.img)
}

// splice builds in dst the image of the page c reads with its bytes
// [at, end) replaced by cell, n cells in all: the header, the cells
// before at and those from end on are range copies of the page. It
// reads the cells c has not reached, so a damaged one is ErrCorrupt.
func splice(dst []byte, c *cursor, at, end, n int, cell []byte) ([]byte, error) {
	used, err := c.end()
	if err != nil {
		return dst, err
	}
	dst = append(newPage(dst, c.leaf, n, c.link()), c.page[headerSize:at]...)
	return append(append(dst, cell...), c.page[end:used]...), nil
}

// Scan calls fn for each (key, value) with lo <= key < hi in key order,
// stopping if fn returns false. A nil hi means "to the end". key and
// value are read-only views of the leaf, valid only for the call: fn
// copies what it keeps.
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	return t.ScanMetered(lo, hi, nil, fn)
}

// ScanMetered is Scan with per-query I/O attribution (see GetMetered).
// It is a walk of Iter, which reads the next leaf of the chain only
// when this one is used up, and allocates nothing.
func (t *Tree) ScanMetered(lo, hi []byte, m *pager.Meter, fn func(key, value []byte) bool) error {
	it := t.Seek(lo, m)
	for ; it.Valid(); it.Next() {
		if hi != nil && bytes.Compare(it.Key(), hi) >= 0 || !fn(it.Key(), it.Val()) {
			break
		}
	}
	return it.Err()
}

// Iter is a pull iterator over the tree's keys in ascending order, which
// Scan and the store's merged scans (beside a second stream) walk. It
// reads each leaf where it lies: keys and values are read-only views of
// the page, valid until that page is next written, which on a sealed
// disk is never. The zero Iter is an exhausted iterator.
type Iter struct {
	t      *Tree
	m      *pager.Meter
	c      cursor // holds the current key; c.page is nil at the end of the tree or after an error
	leaves int    // leaves stepped to along the chain
	err    error
}

// Seek positions an iterator at the first key >= lo. The leaf it lands
// on and every later leaf step are charged to m (see page). Safe for
// concurrent readers, like GetMetered.
func (t *Tree) Seek(lo []byte, m *pager.Meter) Iter {
	it := Iter{t: t, m: m}
	_, c, ok, err := t.find(lo, m, nil)
	if it.c, it.err = c, err; err == nil && !ok {
		it.Next() // the leaf holds no key >= lo: on along the chain
	}
	return it
}

// Valid reports whether the iterator is positioned on a key.
func (it *Iter) Valid() bool { return it.c.page != nil }

// Err returns the read error that stopped the iterator, if any.
func (it *Iter) Err() error { return it.err }

// Key returns the current key; the iterator must be Valid.
func (it *Iter) Key() []byte { return it.c.key }

// Val returns the current value; the iterator must be Valid.
func (it *Iter) Val() []byte { return it.c.val }

// Next advances to the following key, along the leaf chain past the end
// of a leaf (lazy deletion can leave empty leaves behind). The iterator
// becomes invalid at the end of the tree, and stays so. A chain longer
// than the disk has pages is a cycle, which only a corrupt image holds.
func (it *Iter) Next() {
	for it.c.page != nil {
		ok, err := it.c.next()
		if ok {
			return
		}
		next := it.c.link()
		it.c = cursor{}
		if it.leaves++; err == nil && next != 0 && it.leaves > it.t.disk.NumPages() {
			err = fmt.Errorf("%w: the leaf chain forms a cycle", ErrCorrupt)
		}
		if err != nil || next == 0 {
			it.err = err
			return
		}
		page, err := it.t.page(next, it.m)
		if err == nil {
			it.c, err = leafCursor(page)
		}
		it.err = err
	}
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
			page, err := t.page(id, m)
			if err != nil {
				return 0, err
			}
			c, err := newCursor(page)
			if err != nil {
				return 0, err
			}
			if c.leaf {
				if len(below) > 0 {
					return 0, fmt.Errorf("%w: leaf page %d beside interior pages", ErrCorrupt, id)
				}
				break
			}
			below = append(below, c.link())
			for {
				ok, err := c.next()
				if err != nil {
					return 0, err
				}
				if !ok {
					break
				}
				below = append(below, c.child)
			}
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
		c, err := leafCursor(page)
		if err != nil {
			return 0, fmt.Errorf("%w: the leaf chain reaches page %d", err, id)
		}
		id = c.link()
	}
	return n, nil
}
