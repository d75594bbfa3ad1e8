package plist

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/model"
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
// record across page boundaries, writing each full page once. A writer
// whose Append or Close fails frees every page it allocated, the page
// whose write failed included, and returns that error from then on; a
// caller that gives up on a healthy writer for another reason calls
// Abort, which does the same.
type Writer struct {
	disk    *pager.Disk
	page    []byte // bytes of the page being filled
	pages   []pager.PageID
	size    int64
	count   int64
	scratch []byte
	lastKey []byte
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

// Append adds a record to the list. An encoded entry (a record that came
// from a reader) is copied through byte for byte; nothing of r is kept.
func (w *Writer) Append(r *Record) error {
	if w.err != nil {
		return w.err
	}
	if w.ordered {
		if w.count > 0 && r.Key < aliasString(w.lastKey) {
			return w.Abort(fmt.Errorf("plist: unsorted append: %q after %q", r.Key, w.lastKey))
		}
		w.lastKey = append(w.lastKey[:0], r.Key...)
	}
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
		return w.Abort(err)
	}
	w.pages = append(w.pages, id)
	if err := w.disk.Write(id, w.page); err != nil {
		return w.Abort(err)
	}
	w.page = w.page[:0]
	return nil
}

// Abort poisons the writer with err and frees the pages it allocated:
// nobody else holds them, since the list was never returned. It returns
// err, so a caller abandoning the writer on a failed read writes
// return nil, w.Abort(err).
func (w *Writer) Abort(err error) error {
	for _, id := range w.pages {
		_ = w.disk.Free(id)
	}
	w.pages, w.err = nil, err
	return err
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

// Offset returns the stream offset at which the next appended record
// will begin. Stored in an index, it allows later random access via
// ReaderAt/RandomReader.
func (w *Writer) Offset() int64 { return w.size }

// poisonReads is the test hook behind PoisonReads.
var poisonReads bool

// PoisonReads is a test hook for the validity rule of Reader.Next: while
// on, every Reader, RandomReader and Stack hands out its bytes from a
// private buffer and fills that buffer with 0xDD before producing the
// next, so code that keeps a record or frame too long reads garbage
// instead of bytes that happen to be intact still. Page I/O is the same
// either way. Switch it only while nothing is reading.
func PoisonReads(on bool) { poisonReads = on }

const poison = 0xDD

// poisonRecord overwrites what a reader handed out last and drops the
// buffers, so that the next record lands elsewhere and the scribble
// stays visible to whoever still holds the old one.
func poisonRecord(buf *[]byte, r *Record) {
	for i := range *buf {
		(*buf)[i] = poison
	}
	for i := range r.Aux {
		r.Aux[i] = -0x2222222222222223 // 0xDD in every byte
	}
	*buf, r.Aux = nil, nil
}

// RandomReader reads single records at known stream offsets, caching the
// most recently read page so that ascending-offset access patterns (the
// common case: offsets increase with reverse-DN key) cost one page read
// per page touched. Like Reader, each RandomReader owns a
// pager.ReadHandle and must not be shared between goroutines.
type RandomReader struct {
	l       *List
	h       *pager.ReadHandle
	page    []byte
	cur     int    // cached page index; -1 if none
	scratch []byte // a record that straddles pages
	rec     Record // the record handed out, reused
}

// RandomReader returns a positioned record reader for the list.
func (l *List) RandomReader() *RandomReader {
	return l.MeteredRandomReader(nil)
}

// MeteredRandomReader is RandomReader with a per-query pager.Meter
// attached to the underlying read handle, so reading a list on a shared
// device counts into the owning query's meter (nil meter = uncharged).
func (l *List) MeteredRandomReader(m *pager.Meter) *RandomReader {
	rr := l.randomReader(m)
	return &rr
}

func (l *List) randomReader(m *pager.Meter) RandomReader {
	// One page, or the list's bytes when they are fewer — the result of a
	// point query is a few hundred, and every query drains its result.
	buf := make([]byte, min(int64(l.disk.PageSize()), l.size))
	return RandomReader{l: l, h: l.disk.NewMeteredReadHandle(m), page: buf, cur: -1}
}

// view returns the stream's bytes from off to the end of the page that
// holds off, reading that page unless it is the cached one.
func (rr *RandomReader) view(off int64) ([]byte, error) {
	ps := int64(rr.l.disk.PageSize())
	pi := int(off / ps)
	if off >= rr.l.size || pi >= len(rr.l.pages) {
		return nil, io.ErrUnexpectedEOF
	}
	if pi != rr.cur {
		rr.cur = -1
		if err := rr.h.Read(rr.l.pages[pi], rr.page); err != nil {
			return nil, err
		}
		rr.cur = pi
	}
	return rr.page[off%ps : min(ps, rr.l.size-int64(pi)*ps)], nil
}

// ReadAt decodes the header of the record starting at stream offset off
// (see Record) and returns it together with the offset of the following
// record. The record is the reader's: it is valid until the next ReadAt.
func (rr *RandomReader) ReadAt(off int64) (*Record, int64, error) {
	if poisonReads {
		poisonRecord(&rr.scratch, &rr.rec)
	}
	v, err := rr.view(off)
	if err != nil {
		return nil, 0, err
	}
	n, k := binary.Uvarint(v)
	if k < 0 {
		return nil, 0, corrupt("record length")
	}
	if k == 0 { // the length itself straddles pages
		var shift uint
		for {
			if v, err = rr.view(off + int64(k)); err != nil {
				return nil, 0, err
			}
			k++
			n |= uint64(v[0]&0x7f) << shift
			if v[0] < 0x80 {
				break
			}
			if shift += 7; shift > 63 {
				return nil, 0, corrupt("record length")
			}
		}
		v = v[1:]
	} else {
		v = v[k:]
	}
	off += int64(k)
	if n > uint64(rr.l.size-off) {
		return nil, 0, corrupt("record length")
	}
	if uint64(len(v)) >= n && !poisonReads {
		v = v[:n] // within the cached page: decode in place
	} else {
		rr.scratch = slices.Grow(rr.scratch[:0], int(n))[:n]
		for at := 0; at < len(rr.scratch); {
			if len(v) == 0 { // page boundary: the record goes on in the next
				if v, err = rr.view(off + int64(at)); err != nil {
					return nil, 0, err
				}
			}
			c := copy(rr.scratch[at:], v)
			at, v = at+c, v[c:]
		}
		v = rr.scratch
	}
	if err := decodeInto(&rr.rec, v); err != nil {
		return nil, 0, err
	}
	return &rr.rec, off + int64(n), nil
}

// Reader iterates a list's records in order, buffering one page. Each
// Reader owns a pager.ReadHandle, so any number of Readers — including
// Readers over the same list — may run on different goroutines
// concurrently (the read-handle contract of DESIGN.md §10).
type Reader struct {
	rr  RandomReader
	off int64 // stream offset of the next record
}

// Reader returns a fresh iterator over the list.
func (l *List) Reader() *Reader {
	return l.MeteredReader(nil)
}

// MeteredReader is Reader with a per-query meter (see
// MeteredRandomReader).
func (l *List) MeteredReader(m *pager.Meter) *Reader {
	return &Reader{rr: l.randomReader(m)}
}

// ReaderAt returns an iterator positioned at stream offset off, which
// must be a record boundary previously obtained from a Writer's Offset
// or a RandomReader. It reads the containing page immediately.
func (l *List) ReaderAt(off int64) (*Reader, error) {
	return l.MeteredReaderAt(off, nil)
}

// MeteredReaderAt is ReaderAt with a per-query meter.
func (l *List) MeteredReaderAt(off int64, m *pager.Meter) (*Reader, error) {
	r := l.MeteredReader(m)
	r.off = min(off, l.size)
	if off < l.size {
		if _, err := r.rr.view(off); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Next returns the next record, or io.EOF after the last. Only the
// record's header is decoded (see Record). The record is the reader's: it
// and everything it aliases — its Key, its Aux, its encoded entry — are
// valid until the next call to Next, which reuses them. Append it to a
// Writer, read what is needed from it, or Clone it before then.
func (r *Reader) Next() (*Record, error) {
	if r.off >= r.rr.l.size {
		if poisonReads {
			poisonRecord(&r.rr.scratch, &r.rr.rec)
		}
		return nil, io.EOF
	}
	rec, next, err := r.rr.ReadAt(r.off)
	if err != nil {
		return nil, err
	}
	r.off = next
	return rec, nil
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
			return nil, w.Abort(err)
		}
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
}

// Drain reads every record of the list into memory with its entry
// materialized (Record.Materialize: the list must be keyed by its own
// entries, as every query result is) — where entries leave the engine.
// A record without an entry is refused with ErrNoEntry. The records
// share nothing with the list.
func Drain(l *List) ([]*Record, error) {
	out := make([]*Record, 0, min(l.Count(), l.Size()))
	rd := l.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if !rec.HasEntry() {
			return nil, fmt.Errorf("%w: %q", ErrNoEntry, rec.Key)
		}
		c := &Record{Key: strings.Clone(rec.Key), Label: rec.Label, A: rec.A, B: rec.B, Aux: slices.Clone(rec.Aux)}
		c.Entry = rec.decodeEntry(c.Key)
		out = append(out, c)
	}
}

// DrainEntries is Drain for a caller that keeps only the entries, as a
// query's result does: it allocates no records beside them.
func DrainEntries(l *List) ([]*model.Entry, error) {
	out := make([]*model.Entry, 0, min(l.Count(), l.Size()))
	rd := l.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if !rec.HasEntry() {
			return nil, fmt.Errorf("%w: %q", ErrNoEntry, rec.Key)
		}
		out = append(out, rec.decodeEntry(strings.Clone(rec.Key)))
	}
}
