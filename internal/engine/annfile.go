package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// annFile is the "associate values with entry rt in list L1" step of the
// stack algorithms: a fixed-slot array of per-entry annotations, slot i
// belonging to the i-th record of L1 in key order. Phase 1 writes slots
// in pop (post-) order through a small pinning pool — the paper's
// in-place annotation of L1 — and phase 2 reads them sequentially
// alongside a rescan of L1. Pops have strong page locality, so total
// annotation I/O stays proportional to |L1|/B_ann.
type annFile struct {
	pool     *pager.Pool
	disk     *pager.Disk
	slotSize int
	perPage  int
	pages    []pager.PageID
}

func newAnnFile(disk *pager.Disk, poolPages, slotSize int, nSlots int64) (*annFile, error) {
	if slotSize <= 0 || slotSize > disk.PageSize() {
		return nil, fmt.Errorf("engine: bad annotation slot size %d", slotSize)
	}
	f := &annFile{
		pool:     pager.NewPool(disk, poolPages),
		disk:     disk,
		slotSize: slotSize,
		perPage:  disk.PageSize() / slotSize,
	}
	nPages := (nSlots + int64(f.perPage) - 1) / int64(f.perPage)
	for i := int64(0); i < nPages; i++ {
		id, err := disk.Alloc()
		if err != nil {
			return nil, err
		}
		f.pages = append(f.pages, id)
	}
	return f, nil
}

func (f *annFile) frame(slot int64) (*pager.Frame, int, error) {
	pi := int(slot / int64(f.perPage))
	if pi < 0 || pi >= len(f.pages) {
		return nil, 0, fmt.Errorf("engine: annotation slot %d out of range", slot)
	}
	fr, err := f.pool.Get(f.pages[pi])
	if err != nil {
		return nil, 0, err
	}
	return fr, int(slot%int64(f.perPage)) * f.slotSize, nil
}

// setStats writes the per-spec statistics for one slot.
func (f *annFile) setStats(slot int64, stats []aggStats) error {
	fr, off, err := f.frame(slot)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(fr)
	b := fr.Data[off : off+f.slotSize]
	i := 0
	for _, s := range stats {
		for _, v := range s.ints() {
			binary.LittleEndian.PutUint64(b[i:], uint64(v))
			i += 8
		}
	}
	fr.SetDirty()
	return nil
}

// getStats reads the per-spec statistics for one slot into out.
func (f *annFile) getStats(slot int64, out []aggStats) error {
	fr, off, err := f.frame(slot)
	if err != nil {
		return err
	}
	defer f.pool.Unpin(fr)
	b := fr.Data[off : off+f.slotSize]
	var ints [statsInts]int64
	i := 0
	for si := range out {
		for j := range ints {
			ints[j] = int64(binary.LittleEndian.Uint64(b[i:]))
			i += 8
		}
		out[si] = decodeStats(ints[:])
	}
	return nil
}

// free releases the annotation pages.
func (f *annFile) free() {
	for _, id := range f.pages {
		_ = f.disk.Free(id)
	}
	f.pages = nil
}

// annSlotSize returns the slot size for nSpecs tracked aggregates.
func annSlotSize(nSpecs int) int { return nSpecs * statsInts * 8 }
