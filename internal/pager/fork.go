package pager

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Fork support: a forked Disk shares the parent's page images
// copy-on-write, so an entry-level mutation touches O(log N) fresh
// pages instead of copying the device. The fork additionally records
// which pages it dirtied, which is exactly the page set a delta
// checkpoint (WriteDeltaTo) must carry against the parent's image.
//
// Safety model: a published store's Disk is never written again. core
// seals every disk it publishes (Seal), so a write to one fails with
// ErrSealed instead of racing its readers and forks. The fork therefore
// reads shared page slices without taking the parent's lock, and a
// Write on a shared page installs a fresh private slice instead of
// zeroing the shared one in place.

// Fork returns a copy-on-write child of the device. The child sees the
// parent's current pages and free list; writes, allocations, and frees
// on the child never disturb the parent. The child tracks its dirty
// page set (see Dirty) from birth.
func (d *Disk) Fork() *Disk {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return &Disk{
		pageSize: d.pageSize,
		pages:    append([][]byte(nil), d.pages...),
		free:     append([]PageID(nil), d.free...),
		cowBase:  len(d.pages),
		owned:    make(map[PageID]bool),
		dirty:    make(map[PageID]struct{}),
	}
}

// isShared reports whether page id still aliases the parent's slice
// (fork-local bookkeeping; caller holds the write lock).
func (d *Disk) isShared(id PageID) bool {
	return d.owned != nil && int(id) < d.cowBase && !d.owned[id]
}

// markDirty records id in the fork's dirty set (no-op on a non-fork).
func (d *Disk) markDirty(id PageID) {
	if d.dirty != nil {
		d.dirty[id] = struct{}{}
	}
}

// Dirty returns the sorted set of pages this fork has written, allocated,
// or freed since Fork — the page set a delta against the parent must
// carry. Nil for a disk that is not a fork.
func (d *Disk) Dirty() []PageID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.dirty == nil {
		return nil
	}
	out := make([]PageID, 0, len(d.dirty))
	for id := range d.dirty {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyCount returns the size of the fork's dirty set (0 on a non-fork).
func (d *Disk) DirtyCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.dirty)
}

// delta format: magic, page size, slot count after the delta, the full
// free list (replaced wholesale — it is tiny), then the dirty pages as
// (id, presence, image) triples in ascending id order. Like WriteTo,
// delta I/O is backup traffic and is not counted in Stats.
var deltaMagic = [8]byte{'D', 'I', 'R', 'K', 'I', 'T', 'D', '2'}

// WriteDeltaTo serializes a page delta: the given dirty pages as this
// device currently holds them, plus the device's free list and slot
// count. Applying the delta (ApplyDelta) to a disk holding the
// pre-fork image reproduces this device exactly, provided dirty covers
// every page that differs — the union of Dirty() sets along the fork
// chain between the two images.
func (d *Disk) WriteDeltaTo(w io.Writer, dirty []PageID) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	bw := &countWriter{w: w}
	if _, err := bw.Write(deltaMagic[:]); err != nil {
		return bw.n, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(d.pageSize))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(d.pages)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(d.free)))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(dirty)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return bw.n, err
	}
	var id [4]byte
	for _, f := range d.free {
		binary.LittleEndian.PutUint32(id[:], uint32(f))
		if _, err := bw.Write(id[:]); err != nil {
			return bw.n, err
		}
	}
	for i, p := range dirty {
		if i > 0 && dirty[i-1] >= p {
			return bw.n, errors.New("pager: delta dirty set not strictly ascending")
		}
		if int(p) < 1 || int(p) >= len(d.pages) {
			return bw.n, fmt.Errorf("%w: %d", ErrBadPage, p)
		}
		binary.LittleEndian.PutUint32(id[:], uint32(p))
		if _, err := bw.Write(id[:]); err != nil {
			return bw.n, err
		}
		img := d.pages[p]
		if img == nil {
			if _, err := bw.Write([]byte{0}); err != nil {
				return bw.n, err
			}
			continue
		}
		if _, err := bw.Write([]byte{1}); err != nil {
			return bw.n, err
		}
		if _, err := bw.Write(img); err != nil {
			return bw.n, err
		}
	}
	return bw.n, nil
}

// ApplyDelta mutates d in place by applying a delta previously written
// with WriteDeltaTo: the slot count grows to the delta's, the free list
// is replaced, and each carried page image overwrites its slot. The
// same incremental-allocation discipline as ReadDisk applies — lying
// headers on truncated streams fail at the truncation point. The
// caller owns d exclusively (recovery replays deltas onto a private
// disk before anything is published); a sealed d refuses with
// ErrSealed.
func (d *Disk) ApplyDelta(r io.Reader) error {
	if d.sealed.Load() {
		return ErrSealed
	}
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return err
	}
	if magic != deltaMagic {
		return errors.New("pager: not a disk delta")
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return err
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[0:]))
	nPages := int(binary.LittleEndian.Uint32(hdr[4:]))
	nFree := int(binary.LittleEndian.Uint32(hdr[8:]))
	nDirty := int(binary.LittleEndian.Uint32(hdr[12:]))
	if pageSize != d.pageSize {
		return fmt.Errorf("pager: delta page size %d != disk %d", pageSize, d.pageSize)
	}
	if nPages < len(d.pages) || nFree < 0 || nFree > nPages || nDirty < 0 || nDirty > nPages {
		return errors.New("pager: corrupt delta header")
	}
	var id [4]byte
	free := d.free[:0]
	for i := 0; i < nFree; i++ {
		if _, err := io.ReadFull(br, id[:]); err != nil {
			return fmt.Errorf("pager: truncated delta free list: %w", err)
		}
		f := PageID(binary.LittleEndian.Uint32(id[:]))
		if int(f) < 1 || int(f) >= nPages {
			return fmt.Errorf("pager: delta free-list page %d out of range", f)
		}
		free = append(free, f)
	}
	pages := d.pages
	prev := PageID(0)
	var present [1]byte
	for i := 0; i < nDirty; i++ {
		if _, err := io.ReadFull(br, id[:]); err != nil {
			return fmt.Errorf("pager: truncated delta page directory: %w", err)
		}
		p := PageID(binary.LittleEndian.Uint32(id[:]))
		if int(p) < 1 || int(p) >= nPages || (i > 0 && p <= prev) {
			return fmt.Errorf("pager: delta page id %d out of order or range", p)
		}
		prev = p
		if _, err := io.ReadFull(br, present[:]); err != nil {
			return fmt.Errorf("pager: truncated delta presence byte: %w", err)
		}
		for len(pages) <= int(p) {
			pages = append(pages, nil)
		}
		if present[0] == 0 {
			pages[p] = nil
			continue
		}
		img := make([]byte, pageSize)
		if _, err := io.ReadFull(br, img); err != nil {
			return fmt.Errorf("pager: truncated delta page image: %w", err)
		}
		pages[p] = img
	}
	for len(pages) < nPages {
		pages = append(pages, nil)
	}
	d.pages = pages
	d.free = free
	return nil
}
