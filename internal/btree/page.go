package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// A node exists only as its page image, and this file is its one codec:
// the readers walk a page with a cursor, and Insert, Delete and the
// Loader write it with newPage, putHeader and the two cell appenders.
//
// Page layout:
//
//	byte 0:      1 if leaf
//	bytes 1..2:  number of cells (uint16)
//	bytes 3..6:  the link: next-leaf page id (leaves, 0 ends the chain)
//	             or first child id (interior)
//	then per cell:
//	  uvarint klen, key bytes,
//	  leaf:     uvarint vlen, value bytes
//	  interior: uint32 child page id (subtree with keys >= this key)
//
// Pages reach a reader from snapshot and checkpoint files as well as
// from the tree's own writes, so every length is checked against the
// page before it is used: a malformed page is ErrCorrupt, never a panic
// or a read past the page.
const headerSize = 7

// putHeader writes a page image's header.
func putHeader(page []byte, leaf bool, n int, link pager.PageID) {
	page[0] = 0
	if leaf {
		page[0] = 1
	}
	binary.LittleEndian.PutUint16(page[1:], uint16(n))
	binary.LittleEndian.PutUint32(page[3:], uint32(link))
}

// newPage starts a page image in dst's storage: a header and no cells.
func newPage(dst []byte, leaf bool, n int, link pager.PageID) []byte {
	dst = append(dst[:0], make([]byte, headerSize)...)
	putHeader(dst, leaf, n, link)
	return dst
}

// appendLeafCell appends a leaf cell holding key and value to page.
func appendLeafCell(page, key, value []byte) []byte {
	page = binary.AppendUvarint(page, uint64(len(key)))
	page = append(page, key...)
	page = binary.AppendUvarint(page, uint64(len(value)))
	return append(page, value...)
}

// appendInteriorCell appends an interior cell: the separator key and the
// child whose subtree holds the keys from it on.
func appendInteriorCell(page, key []byte, child pager.PageID) []byte {
	page = binary.AppendUvarint(page, uint64(len(key)))
	page = append(page, key...)
	return binary.LittleEndian.AppendUint32(page, uint32(child))
}

// leafCellLen and interiorCellLen are the sizes of the cells the
// appenders write, for the Loader's fill check.
func leafCellLen(key, value []byte) int { return prefixedLen(key) + prefixedLen(value) }
func interiorCellLen(key []byte) int    { return prefixedLen(key) + 4 }

// prefixedLen is the size of b with its uvarint length before it.
func prefixedLen(b []byte) int {
	n := len(b) + 1
	for v := len(b); v >= 0x80; v >>= 7 {
		n++
	}
	return n
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

// cursor reads a page image in place, cell by cell. It checks each cell
// against the page as it reaches it, and only the cells it reaches: a
// read stops where its answer is. key and val are views of the page.
type cursor struct {
	page  []byte
	leaf  bool
	n, i  int // cells on the page, cells read
	at    int // the offset of the cell read last; past the last, the end of the cells
	off   int // the offset just past the cell read last
	key   []byte
	val   []byte       // a leaf cell's value
	child pager.PageID // an interior cell's child
}

// newCursor opens a cursor before the first cell of page.
func newCursor(page []byte) (cursor, error) {
	if len(page) < headerSize {
		return cursor{}, fmt.Errorf("%w: %d-byte page", ErrCorrupt, len(page))
	}
	n := int(binary.LittleEndian.Uint16(page[1:]))
	return cursor{page: page, leaf: page[0] == 1, n: n, at: headerSize, off: headerSize}, nil
}

// leafCursor is newCursor for a page that must be a leaf.
func leafCursor(page []byte) (cursor, error) {
	c, err := newCursor(page)
	if err == nil && !c.leaf {
		return cursor{}, fmt.Errorf("%w: not a leaf page", ErrCorrupt)
	}
	return c, err
}

// link is the page's link: the next leaf, or the first child.
func (c *cursor) link() pager.PageID {
	return pager.PageID(binary.LittleEndian.Uint32(c.page[3:]))
}

// next reads the following cell; false past the last.
func (c *cursor) next() (bool, error) {
	c.at = c.off
	if c.i >= c.n {
		return false, nil
	}
	var ok bool
	if c.key, c.off, ok = lenPrefixed(c.page, c.off); !ok {
		return false, fmt.Errorf("%w (key %d)", ErrCorrupt, c.i)
	}
	if c.leaf {
		c.val, c.off, ok = lenPrefixed(c.page, c.off)
	} else if ok = c.off+4 <= len(c.page); ok {
		c.child = pager.PageID(binary.LittleEndian.Uint32(c.page[c.off:]))
		c.off += 4
	}
	if !ok {
		return false, fmt.Errorf("%w (cell %d)", ErrCorrupt, c.i)
	}
	c.i++
	return true, nil
}

// seek reads a leaf's cells up to the first whose key is >= key and
// reports whether there is one; either way c.at is where key belongs.
func (c *cursor) seek(key []byte) (bool, error) {
	for {
		if ok, err := c.next(); !ok || err != nil {
			return false, err
		}
		if bytes.Compare(c.key, key) >= 0 {
			return true, nil
		}
	}
}

// childFor reads an interior page's separators up to the first > key
// and returns the child after the last separator <= key: the subtree
// that may hold key. c.at is then where a separator for a new right
// sibling of that child belongs.
func (c *cursor) childFor(key []byte) (pager.PageID, error) {
	child := c.link()
	for {
		ok, err := c.next()
		if !ok || err != nil || bytes.Compare(c.key, key) > 0 {
			return child, err
		}
		child = c.child
	}
}

// end reads the remaining cells and returns the offset past the last:
// the page's used bytes.
func (c *cursor) end() (int, error) {
	for {
		if ok, err := c.next(); !ok || err != nil {
			return c.at, err
		}
	}
}
