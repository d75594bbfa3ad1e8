package engine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/pager"
)

// annFile is the "associate values with entry rt in list L1" step of the
// stack algorithms: a fixed-slot array of per-entry annotations, slot i
// belonging to the i-th record of L1 in key order. Phase 1 writes slots
// in pop (post-) order through a small write-back cache — the paper's
// in-place annotation of L1 — and phase 2 reads them sequentially
// alongside a rescan of L1. Pops have strong page locality, so total
// annotation I/O stays proportional to |L1|/B_ann.
type annFile struct {
	disk     *pager.Disk
	slotSize int
	perPage  int
	pages    []pager.PageID
	cache    []*annFrame // most recently used first; at most annCachePages
}

// annCachePages is the number of annotation pages held in memory.
const annCachePages = 16

// annFrame is one cached annotation page; dirty ones are written back
// when evicted.
type annFrame struct {
	id    pager.PageID
	data  []byte
	dirty bool
}

func newAnnFile(disk *pager.Disk, slotSize int, nSlots int64) (*annFile, error) {
	if slotSize <= 0 || slotSize > disk.PageSize() {
		return nil, fmt.Errorf("engine: bad annotation slot size %d", slotSize)
	}
	f := &annFile{
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

// slot returns the cached frame holding slot and the slot's offset in
// it. A hit moves the frame to the front. A miss first evicts the least
// recently used frame when the cache is full, writing it back if dirty,
// then reads the page into the front frame.
func (f *annFile) slot(slot int64) (*annFrame, int, error) {
	pi := int(slot / int64(f.perPage))
	if pi < 0 || pi >= len(f.pages) {
		return nil, 0, fmt.Errorf("engine: annotation slot %d out of range", slot)
	}
	off := int(slot%int64(f.perPage)) * f.slotSize
	id := f.pages[pi]
	for i, fr := range f.cache {
		if fr.id == id {
			copy(f.cache[1:i+1], f.cache[:i])
			f.cache[0] = fr
			return fr, off, nil
		}
	}
	fr := &annFrame{}
	if n := len(f.cache); n >= annCachePages {
		if fr = f.cache[n-1]; fr.dirty {
			if err := f.disk.Write(fr.id, fr.data); err != nil {
				return nil, 0, err
			}
		}
		f.cache = f.cache[:n-1]
	} else {
		fr.data = make([]byte, f.disk.PageSize())
	}
	if err := f.disk.Read(id, fr.data); err != nil {
		return nil, 0, err
	}
	fr.id, fr.dirty = id, false
	f.cache = append(f.cache, nil)
	copy(f.cache[1:], f.cache)
	f.cache[0] = fr
	return fr, off, nil
}

// setStats writes the per-spec statistics for one slot.
func (f *annFile) setStats(slot int64, stats []aggStats) error {
	fr, off, err := f.slot(slot)
	if err != nil {
		return err
	}
	b := fr.data[off : off+f.slotSize]
	i := 0
	for _, s := range stats {
		for _, v := range s.ints() {
			binary.LittleEndian.PutUint64(b[i:], uint64(v))
			i += 8
		}
	}
	fr.dirty = true
	return nil
}

// getStats reads the per-spec statistics for one slot into out.
func (f *annFile) getStats(slot int64, out []aggStats) error {
	fr, off, err := f.slot(slot)
	if err != nil {
		return err
	}
	b := fr.data[off : off+f.slotSize]
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
	f.pages, f.cache = nil, nil
}

// annSlotSize returns the slot size for nSpecs tracked aggregates.
func annSlotSize(nSpecs int) int { return nSpecs * statsInts * 8 }
