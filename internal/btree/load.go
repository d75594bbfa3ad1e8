package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/pager"
)

// ErrUnsorted is returned by Loader.Add for a key that does not sort
// strictly after the one added before it.
var ErrUnsorted = errors.New("btree: bulk-load key not strictly ascending")

// Bulk-loaded pages are filled to fillNum/fillDen of the page. Not
// full: a forked generation inserts into these leaves, and a leaf with
// no room left splits on its first insert, which costs the write a
// page. Not half, as one-at-a-time ascending inserts leave them: every
// point read and range scan pays for the emptiness in pages.
const fillNum, fillDen = 15, 16

// Loader builds a tree bottom-up from items that arrive in strictly
// ascending key order — the order Build already holds them in. Leaves
// are filled left to right to the fixed occupancy, the first key of
// each page goes up as the separator in its parent, and every page is
// built once in a reused buffer, with the cell helpers Insert uses, and
// written once. So Open, every reader and Insert/Delete on a fork work
// on a loaded tree unchanged.
type Loader struct {
	disk    *pager.Disk
	fill    int // bytes a page is filled to
	maxItem int
	levels  []*loadLevel // [0] is the leaves
	last    []byte       // the key added before, for the order check
	n       int
}

// loadLevel is the node being filled on one level of a load.
type loadLevel struct {
	page  []byte       // the node's image so far; empty before its first cell
	id    pager.PageID // a leaf's page, allocated when it starts (its left neighbour points to it); an interior node's first child
	keys  int          // cells on the page
	first []byte       // the node's first key: its separator one level up
	nodes int          // nodes closed on this level so far
}

// NewLoader starts a bulk load onto disk.
func NewLoader(disk *pager.Disk) *Loader {
	ps := disk.PageSize()
	return &Loader{disk: disk, fill: ps * fillNum / fillDen, maxItem: maxItem(ps)}
}

// Add appends (key, value) to the tree. key must sort strictly after the
// key added before it (ErrUnsorted), and the pair must fit the item
// bound Insert enforces (ErrTooBig). On an error the load is abandoned:
// the pages it allocated are left to the caller's disk.
func (l *Loader) Add(key, value []byte) error {
	if len(key)+len(value) > l.maxItem {
		return fmt.Errorf("%w: %d bytes", ErrTooBig, len(key)+len(value))
	}
	if l.n > 0 && bytes.Compare(key, l.last) <= 0 {
		return fmt.Errorf("%w: %q after %q", ErrUnsorted, key, l.last)
	}
	l.last = append(l.last[:0], key...)
	l.n++

	lv := l.level(0)
	if lv.keys == 0 || len(lv.page)+leafCellLen(key, value) > l.fill || lv.keys == 0xffff {
		// The item starts a leaf. Its page is allocated now, so that the
		// leaf before it, written here, can point to it.
		next, err := l.disk.Alloc()
		if err != nil {
			return err
		}
		if lv.keys > 0 {
			if err := l.closeUp(0, next); err != nil {
				return err
			}
		}
		lv.id = next
		lv.page = newPage(lv.page, true, 0, 0)
		lv.first = append(lv.first[:0], key...)
	}
	lv.page = appendLeafCell(lv.page, key, value)
	lv.keys++
	return nil
}

// level returns level i's node, adding the level on first use.
func (l *Loader) level(i int) *loadLevel {
	for len(l.levels) <= i {
		l.levels = append(l.levels, &loadLevel{})
	}
	return l.levels[i]
}

// close writes level i's node and returns its page. A leaf is written to
// the page it was started on and linked to next (0 ends the chain); an
// interior node gets its page now. The node's first key stays in first
// for the caller to push.
func (l *Loader) close(i int, next pager.PageID) (pager.PageID, error) {
	lv := l.levels[i]
	id, link := lv.id, next
	if i > 0 {
		var err error
		if id, err = l.disk.Alloc(); err != nil {
			return 0, err
		}
		link = lv.id // the first child
	}
	putHeader(lv.page, i == 0, lv.keys, link)
	if err := l.disk.Write(id, lv.page); err != nil {
		return 0, err
	}
	lv.page, lv.id, lv.keys = lv.page[:0], 0, 0
	lv.nodes++
	return id, nil
}

// closeUp closes level i's node and pushes it to level i+1.
func (l *Loader) closeUp(i int, next pager.PageID) error {
	id, err := l.close(i, next)
	if err != nil {
		return err
	}
	return l.push(i+1, l.levels[i].first, id)
}

// push adds child, whose subtree's smallest key is key, as the next
// child of level i's node, closing the node first when the separator
// would take it past the fill.
func (l *Loader) push(i int, key []byte, child pager.PageID) error {
	lv := l.level(i)
	if len(lv.page) > 0 && (len(lv.page)+interiorCellLen(key) > l.fill || lv.keys == 0xffff) {
		if err := l.closeUp(i, 0); err != nil {
			return err
		}
	}
	if len(lv.page) == 0 {
		// The first child needs no separator: the node's own first key
		// stands for it one level up.
		lv.page = newPage(lv.page, false, 0, 0)
		lv.id, lv.first = child, append(lv.first[:0], key...)
		return nil
	}
	lv.page = appendInteriorCell(lv.page, key, child)
	lv.keys++
	return nil
}

// Finish closes the load: each level's last node is written and pushed
// up until a level holds a single node, which is the root. A load of no
// items is one empty leaf.
func (l *Loader) Finish() (*Tree, error) {
	if l.n == 0 {
		return New(l.disk)
	}
	for i := 0; ; i++ {
		if l.levels[i].nodes == 0 {
			root, err := l.close(i, 0)
			if err != nil {
				return nil, err
			}
			return Open(l.disk, root, l.n), nil
		}
		if err := l.closeUp(i, 0); err != nil {
			return nil, err
		}
	}
}
