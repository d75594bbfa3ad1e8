package pager

import (
	"container/list"
	"errors"
	"fmt"
	"sync"
)

// Frame is a buffered page held by a Pool. Callers pin a frame while
// using its Data and must Unpin it afterwards; SetDirty marks it for
// write-back on eviction or flush.
type Frame struct {
	ID    PageID
	Data  []byte
	pins  int
	dirty bool
	elem  *list.Element
}

// SetDirty marks the frame's contents as modified.
func (f *Frame) SetDirty() { f.dirty = true }

// Pool is a pinning LRU buffer pool over a Disk. Index structures
// (B+trees) use it so that hot interior pages cost no repeated I/O while
// leaf-level traffic is still counted faithfully.
//
// Pool bookkeeping (the frame map, LRU order, pin counts) is guarded by
// an internal mutex, so concurrent readers — concurrent queries
// traversing one shared B+tree — are safe. Frame *contents* are
// not guarded: concurrent users may share frames read-only (which is
// how the read-optimized store uses its index pools after build), but
// writers that dirty frames must be serialized externally, exactly as
// build-then-query already does.
type Pool struct {
	disk   *Disk
	cap    int
	mu     sync.Mutex
	frames map[PageID]*Frame
	lru    *list.List // front = most recently used; holds unpinned and pinned alike
}

// ErrPoolFull is returned when every buffered frame is pinned and a new
// page must be brought in.
var ErrPoolFull = errors.New("pager: buffer pool exhausted (all frames pinned)")

// NewPool creates a pool of the given capacity (in pages) over disk.
func NewPool(disk *Disk, capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{disk: disk, cap: capacity, frames: make(map[PageID]*Frame), lru: list.New()}
}

// Disk returns the underlying device.
func (p *Pool) Disk() *Disk { return p.disk }

// Get pins and returns the frame for page id, reading it from disk on a
// miss (evicting an unpinned frame if the pool is full).
func (p *Pool) Get(id PageID) (*Frame, error) {
	return p.GetMetered(id, nil)
}

// GetMetered is Get with per-query I/O attribution: a miss's disk read
// is additionally counted on m ("whoever misses pays" — hits cost no
// I/O and charge nobody, which is what makes pool hit rates visible in
// per-query meters). A nil meter behaves exactly like Get.
func (p *Pool) GetMetered(id PageID, m *Meter) (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		f.pins++
		p.lru.MoveToFront(f.elem)
		return f, nil
	}
	f, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	if err := p.disk.Read(id, f.Data); err != nil {
		p.discard(f)
		return nil, err
	}
	m.Add(Stats{Reads: 1})
	return f, nil
}

// Alloc allocates a fresh page on disk and returns it pinned and dirty,
// without a disk read (its contents start zeroed).
func (p *Pool) Alloc() (*Frame, error) {
	id, err := p.disk.Alloc()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	f, err := p.admit(id)
	if err != nil {
		return nil, err
	}
	f.dirty = true
	return f, nil
}

func (p *Pool) admit(id PageID) (*Frame, error) {
	if len(p.frames) >= p.cap {
		if err := p.evictOne(); err != nil {
			return nil, err
		}
	}
	f := &Frame{ID: id, Data: make([]byte, p.disk.PageSize()), pins: 1}
	f.elem = p.lru.PushFront(f)
	p.frames[id] = f
	return f, nil
}

func (p *Pool) evictOne() error {
	for e := p.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*Frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			if err := p.disk.Write(f.ID, f.Data); err != nil {
				return err
			}
		}
		p.discard(f)
		return nil
	}
	return ErrPoolFull
}

func (p *Pool) discard(f *Frame) {
	p.lru.Remove(f.elem)
	delete(p.frames, f.ID)
}

// Unpin releases one pin on the frame.
func (p *Pool) Unpin(f *Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f.pins <= 0 {
		panic(fmt.Sprintf("pager: unpin of unpinned frame %d", f.ID))
	}
	f.pins--
}

// Flush writes back every dirty frame (keeping them buffered).
func (p *Pool) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.frames {
		if f.dirty {
			if err := p.disk.Write(f.ID, f.Data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}

// Len reports the number of buffered frames.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}
