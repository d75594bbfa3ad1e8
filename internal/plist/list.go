package plist

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/pager"
)

// List is a sequence of records stored as a length-prefixed byte stream
// across pages of a Disk. Lists are immutable once closed.
type List struct {
	disk  *pager.Disk
	pages []pager.PageID
	size  int64 // total stream bytes
	count int64 // number of records
}

// Count returns the number of records in the list.
func (l *List) Count() int64 { return l.count }

// Pages returns the number of pages the list occupies — |L|/B in the
// paper's notation.
func (l *List) Pages() int { return len(l.pages) }

// Size returns the list's total stream length in bytes.
func (l *List) Size() int64 { return l.size }

// Disk returns the device the list lives on.
func (l *List) Disk() *pager.Disk { return l.disk }

// PageIDs returns the list's page identifiers, for snapshot manifests.
func (l *List) PageIDs() []pager.PageID {
	return append([]pager.PageID(nil), l.pages...)
}

// Restore reconstructs a list from a snapshot manifest: the pages (in
// order), total stream size and record count previously reported by
// PageIDs/Size/Count.
func Restore(disk *pager.Disk, pages []pager.PageID, size, count int64) *List {
	return &List{disk: disk, pages: append([]pager.PageID(nil), pages...), size: size, count: count}
}

// Free releases the list's pages back to the device.
func (l *List) Free() error {
	for _, id := range l.pages {
		if err := l.disk.Free(id); err != nil {
			return err
		}
	}
	l.pages = nil
	return nil
}

// Writer appends records to a new list. It buffers at most one page,
// growing the buffer as records arrive so that a list of a few records
// does not cost a page of memory to write; Append streams the encoded
// record across page boundaries, writing each full page once.
type Writer struct {
	disk    *pager.Disk
	page    []byte // bytes of the page being filled
	pages   []pager.PageID
	size    int64
	count   int64
	scratch []byte
	lastKey string
	ordered bool
	err     error
}

// NewWriter starts a new list on disk. The writer verifies that keys are
// appended in non-decreasing order — every algorithm in the paper both
// requires and preserves sortedness — unless Unordered is called.
func NewWriter(disk *pager.Disk) *Writer {
	return &Writer{disk: disk, ordered: true}
}

// Unordered disables the sorted-append check (used by sort-run
// formation, which sorts afterwards).
func (w *Writer) Unordered() *Writer {
	w.ordered = false
	return w
}

// Append adds a record to the list.
func (w *Writer) Append(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if w.ordered && w.count > 0 && r.Key < w.lastKey {
		w.err = fmt.Errorf("plist: unsorted append: %q after %q", r.Key, w.lastKey)
		return w.err
	}
	w.lastKey = r.Key
	w.scratch = AppendRecord(w.scratch[:0], r)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(w.scratch)))
	if err := w.writeBytes(hdr[:n]); err != nil {
		return err
	}
	if err := w.writeBytes(w.scratch); err != nil {
		return err
	}
	w.count++
	return nil
}

func (w *Writer) writeBytes(b []byte) error {
	for len(b) > 0 {
		n := min(len(b), w.disk.PageSize()-len(w.page))
		w.page = append(w.page, b[:n]...)
		w.size += int64(n)
		b = b[n:]
		if len(w.page) == w.disk.PageSize() {
			if err := w.flushPage(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Writer) flushPage() error {
	id, err := w.disk.Alloc()
	if err != nil {
		w.err = err
		return err
	}
	if err := w.disk.Write(id, w.page); err != nil {
		w.err = err
		return err
	}
	w.pages = append(w.pages, id)
	w.page = w.page[:0]
	return nil
}

// Close flushes the final partial page and returns the completed list.
func (w *Writer) Close() (*List, error) {
	if w.err != nil {
		return nil, w.err
	}
	if len(w.page) > 0 {
		if err := w.flushPage(); err != nil {
			return nil, err
		}
	}
	return &List{disk: w.disk, pages: w.pages, size: w.size, count: w.count}, nil
}

// Reader iterates a list's records in order, buffering one page. Each
// Reader owns a pager.ReadHandle, so any number of Readers — including
// Readers over the same list — may run on different goroutines
// concurrently (the per-goroutine read contract of DESIGN.md §9).
type Reader struct {
	l       *List
	h       *pager.ReadHandle
	page    []byte
	pi      int   // index into l.pages of the page after the buffered one
	off     int   // offset in page
	read    int64 // stream bytes consumed
	scratch []byte
}

// Reader returns a fresh iterator over the list.
func (l *List) Reader() *Reader {
	return l.MeteredReader(nil)
}

// MeteredReader is Reader with a per-query pager.Meter attached to the
// underlying read handle, so iterating a list on a shared device counts
// into the owning query's meter (nil meter = plain Reader).
func (l *List) MeteredReader(m *pager.Meter) *Reader {
	return &Reader{l: l, h: l.disk.NewMeteredReadHandle(m), page: l.readBuf()}
}

// readBuf returns a sequential reader's buffer: one page, or the list's
// bytes when they are fewer — the result of a point query is a few
// hundred, and every query drains its result through a Reader.
func (l *List) readBuf() []byte {
	return make([]byte, min(int64(l.disk.PageSize()), l.size))
}

// ReaderAt returns an iterator positioned at stream offset off, which
// must be a record boundary previously obtained from a Writer's Offset
// or a RandomReader. It reads the containing page immediately.
func (l *List) ReaderAt(off int64) (*Reader, error) {
	return l.MeteredReaderAt(off, nil)
}

// MeteredReaderAt is ReaderAt with a per-query meter (see MeteredReader).
func (l *List) MeteredReaderAt(off int64, m *pager.Meter) (*Reader, error) {
	r := &Reader{l: l, h: l.disk.NewMeteredReadHandle(m), page: l.readBuf()}
	if off >= l.size {
		r.read = l.size
		return r, nil
	}
	ps := int64(l.disk.PageSize())
	pi := int(off / ps)
	if err := r.h.Read(l.pages[pi], r.page); err != nil {
		return nil, err
	}
	r.pi = pi + 1
	r.off = int(off % ps)
	r.read = off
	return r, nil
}

func (r *Reader) fill() error {
	if r.pi >= len(r.l.pages) {
		return io.EOF
	}
	if err := r.h.Read(r.l.pages[r.pi], r.page); err != nil {
		return err
	}
	r.pi++
	r.off = 0
	return nil
}

func (r *Reader) readByte() (byte, error) {
	if r.read >= r.l.size {
		return 0, io.EOF
	}
	if r.off >= len(r.page) || (r.pi == 0) {
		if err := r.fill(); err != nil {
			return 0, err
		}
	}
	c := r.page[r.off]
	r.off++
	r.read++
	return c, nil
}

func (r *Reader) readFull(b []byte) error {
	for i := range b {
		c, err := r.readByte()
		if err != nil {
			if err == io.EOF {
				return io.ErrUnexpectedEOF
			}
			return err
		}
		b[i] = c
	}
	return nil
}

// Next returns the next record, or io.EOF after the last.
func (r *Reader) Next() (*Record, error) {
	if r.read >= r.l.size {
		return nil, io.EOF
	}
	n, err := binary.ReadUvarint(byteReaderFunc(r.readByte))
	if err != nil {
		if err == io.EOF && r.read < r.l.size {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if cap(r.scratch) < int(n) {
		r.scratch = make([]byte, n)
	}
	buf := r.scratch[:n]
	if err := r.readFull(buf); err != nil {
		return nil, err
	}
	return DecodeRecord(buf)
}

type byteReaderFunc func() (byte, error)

func (f byteReaderFunc) ReadByte() (byte, error) { return f() }

// Offset returns the stream offset at which the next appended record
// will begin. Stored in an index, it allows later random access via
// ReaderAt/RandomReader.
func (w *Writer) Offset() int64 { return w.size }

// RandomReader reads single records at known stream offsets, caching the
// most recently read page so that ascending-offset access patterns (the
// common case: offsets increase with reverse-DN key) cost one page read
// per page touched. Like Reader, each RandomReader owns a
// pager.ReadHandle and must not be shared between goroutines.
type RandomReader struct {
	l       *List
	h       *pager.ReadHandle
	page    []byte
	cur     int // cached page index; -1 if none
	scratch []byte
}

// RandomReader returns a positioned record reader for the list.
func (l *List) RandomReader() *RandomReader {
	return l.MeteredRandomReader(nil)
}

// MeteredRandomReader is RandomReader with a per-query meter (see
// MeteredReader).
func (l *List) MeteredRandomReader(m *pager.Meter) *RandomReader {
	return &RandomReader{l: l, h: l.disk.NewMeteredReadHandle(m), page: make([]byte, l.disk.PageSize()), cur: -1}
}

func (rr *RandomReader) byteAt(off int64) (byte, error) {
	if off >= rr.l.size {
		return 0, io.ErrUnexpectedEOF
	}
	ps := int64(rr.l.disk.PageSize())
	pi := int(off / ps)
	if pi != rr.cur {
		if err := rr.h.Read(rr.l.pages[pi], rr.page); err != nil {
			return 0, err
		}
		rr.cur = pi
	}
	return rr.page[off%ps], nil
}

// ReadAt decodes the record starting at stream offset off and returns it
// together with the offset of the following record.
func (rr *RandomReader) ReadAt(off int64) (*Record, int64, error) {
	var n uint64
	var shift uint
	for {
		c, err := rr.byteAt(off)
		if err != nil {
			return nil, 0, err
		}
		off++
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
	}
	if cap(rr.scratch) < int(n) {
		rr.scratch = make([]byte, n)
	}
	buf := rr.scratch[:n]
	for i := range buf {
		c, err := rr.byteAt(off)
		if err != nil {
			return nil, 0, err
		}
		buf[i] = c
		off++
	}
	rec, err := DecodeRecord(buf)
	if err != nil {
		return nil, 0, err
	}
	return rec, off, nil
}

// Build writes all records to a new list and closes it.
func Build(disk *pager.Disk, recs []*Record) (*List, error) {
	w := NewWriter(disk)
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// Materialize copies a sorted record stream into a new list on disk.
func Materialize(disk *pager.Disk, r RecordReader) (*List, error) {
	w := NewWriter(disk)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return w.Close()
		}
		if err != nil {
			return nil, err
		}
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
}

// Drain reads every record of the list into memory (for tests and small
// results).
func Drain(l *List) ([]*Record, error) {
	out := make([]*Record, 0, l.Count())
	rd := l.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
