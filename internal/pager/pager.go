// Package pager provides the simulated block device on which every
// disk-resident structure in this repository lives: paged lists, stacks,
// sort runs, B+trees, and the entry heap file.
//
// The theorems of "Querying Network Directories" are stated in counted
// page I/Os with blocking factor B (entries per page). Counting page
// reads and writes on this device therefore measures exactly the
// quantity the paper's proofs bound, independent of hardware. Pages are
// held in memory; the accounting, not the medium, is the point.
package pager

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// PageID identifies a page on a Disk. Zero is never a valid page.
type PageID uint32

// DefaultPageSize is the page size used when NewDisk is given size 0.
const DefaultPageSize = 4096

// Stats counts page-level I/O. The evaluation algorithms' complexity
// claims are verified against these counters.
//
// Ownership rule for delta accounting: the counters themselves are
// exact under concurrency (every operation lands one atomic increment
// on one of the device's stats shards — no updates are ever lost),
// but a windowed delta (Stats-before subtracted from Stats-after)
// attributes I/O to the measurer only if nothing else touches the
// Disk during the window. Readers that share a Disk see each other's
// page accesses in their deltas. Per-query accounting in this
// repository therefore never windows a shared disk: every evaluation
// runs on its own Arena, whose scratch disk and meter no other query
// touches, and the obs tracer windows that arena. Intra-query
// parallelism (engine Workers > 1) shares one arena and still belongs
// to the one query. TestStatsDeltaOwnership asserts both halves of
// the rule.
type Stats struct {
	Reads  int64 // pages read
	Writes int64 // pages written
	Allocs int64 // pages allocated
	Frees  int64 // pages freed
}

// Add returns the component-wise sum of two Stats.
func (s Stats) Add(t Stats) Stats {
	return Stats{s.Reads + t.Reads, s.Writes + t.Writes, s.Allocs + t.Allocs, s.Frees + t.Frees}
}

// Sub returns the component-wise difference s - t.
func (s Stats) Sub(t Stats) Stats {
	return Stats{s.Reads - t.Reads, s.Writes - t.Writes, s.Allocs - t.Allocs, s.Frees - t.Frees}
}

// IO returns reads + writes, the quantity the paper's theorems bound.
func (s Stats) IO() int64 { return s.Reads + s.Writes }

// String formats the counters for logs and test failures.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d", s.Reads, s.Writes, s.Allocs, s.Frees)
}

// statsShards is the number of independent counter shards a Disk
// maintains. A power of two so shard selection is a mask.
const statsShards = 32

// statsShard is one cache-line-padded slice of the device's counters.
// Sharding keeps the hot concurrent-read path free of a single
// contended counter word; Stats sums the shards.
type statsShard struct {
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64
	_      [32]byte // pad to a cache line against false sharing
}

// Disk is a simulated block device: fixed-size pages, explicit
// allocation, counted reads and writes. It is safe for concurrent use:
// reads share a read lock (page contents are immutable while no write
// runs), structural mutations (Write, Alloc, Free) take the write
// lock, and the I/O counters are sharded atomics, so concurrent
// readers — the engine's parallel workers — never serialize on
// accounting.
type Disk struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
	free     []PageID
	fault    func(op string, id PageID) error

	// Copy-on-write fork state (see fork.go). On a fork, page ids below
	// cowBase alias the parent's slices until first write (owned marks
	// the ones replaced), and dirty records every page the fork has
	// changed. All nil/zero on a directly constructed disk.
	cowBase int
	owned   map[PageID]bool
	dirty   map[PageID]struct{}

	// sealed makes the device read-only (see Seal).
	sealed atomic.Bool

	shards     [statsShards]statsShard
	nextHandle atomic.Uint32
}

// Disk-level errors.
var (
	ErrBadPage  = errors.New("pager: invalid page id")
	ErrPageSize = errors.New("pager: data exceeds page size")
	// ErrSealed is returned by every mutator of a sealed disk.
	ErrSealed = errors.New("pager: disk is sealed")
)

// NewDisk creates a device with the given page size (DefaultPageSize if
// 0).
func NewDisk(pageSize int) *Disk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &Disk{pageSize: pageSize, pages: make([][]byte, 1)} // slot 0 unused
}

// PageSize returns the device's page size in bytes.
func (d *Disk) PageSize() int { return d.pageSize }

// SetFault installs a fault injector invoked before each operation
// ("read", "write", "alloc") with the page involved; a non-nil return is
// surfaced to the caller. Used by failure-injection tests. An injector
// used together with parallel evaluation must itself be safe for
// concurrent calls (reads invoke it under the shared read lock).
func (d *Disk) SetFault(f func(op string, id PageID) error) {
	d.mu.Lock()
	d.fault = f
	d.mu.Unlock()
}

// Seal makes the device read-only for good: Write, Alloc, Free and
// ApplyDelta return ErrSealed from now on, while reads, Fork, WriteTo,
// WriteDeltaTo, Dirty and Stats work as before. A fork of a sealed disk
// is an ordinary writable disk. Publishing a store seals its disk, which
// turns the fork safety model (fork.go) into a checked invariant.
func (d *Disk) Seal() { d.sealed.Store(true) }

// shardFor picks the counter shard for direct (handle-less) operations:
// keyed by page id so concurrent readers of different pages touch
// different cache lines.
func (d *Disk) shardFor(id PageID) *statsShard {
	return &d.shards[uint32(id)&(statsShards-1)]
}

// Alloc reserves a fresh (zeroed) page.
func (d *Disk) Alloc() (PageID, error) {
	if d.sealed.Load() {
		return 0, ErrSealed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		if err := d.fault("alloc", 0); err != nil {
			return 0, err
		}
	}
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		d.pages[id] = nil
		if d.owned != nil {
			d.owned[id] = true
		}
		d.markDirty(id)
		d.shardFor(id).allocs.Add(1)
		return id, nil
	}
	d.pages = append(d.pages, nil)
	id := PageID(len(d.pages) - 1)
	d.markDirty(id)
	d.shardFor(id).allocs.Add(1)
	return id, nil
}

// Free releases a page for reuse.
func (d *Disk) Free(id PageID) error {
	if d.sealed.Load() {
		return ErrSealed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) <= 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	d.shardFor(id).frees.Add(1)
	d.pages[id] = nil
	if d.owned != nil {
		d.owned[id] = true
	}
	d.markDirty(id)
	d.free = append(d.free, id)
	return nil
}

// Read copies page id into buf — the whole page, or its first len(buf)
// bytes when buf is shorter than PageSize, for a caller that knows how
// much of the page holds data — and counts one page read. Unwritten
// pages read as zeroes. Reads share the device's read lock, so any
// number may run concurrently.
func (d *Disk) Read(id PageID, buf []byte) error {
	return d.readCounted(id, buf, d.shardFor(id))
}

// readCounted is the shared read path: the page copy under the read
// lock, the accounting on the caller's shard.
func (d *Disk) readCounted(id PageID, buf []byte, sh *statsShard) error {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) <= 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	if d.fault != nil {
		if err := d.fault("read", id); err != nil {
			return err
		}
	}
	sh.reads.Add(1)
	p := d.pages[id]
	if p == nil {
		for i := 0; i < d.pageSize && i < len(buf); i++ {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, p)
	return nil
}

// Write stores data (at most PageSize bytes) as the new content of page
// id and counts one page write.
func (d *Disk) Write(id PageID, data []byte) error {
	if d.sealed.Load() {
		return ErrSealed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) <= 0 || int(id) >= len(d.pages) {
		return fmt.Errorf("%w: %d", ErrBadPage, id)
	}
	if len(data) > d.pageSize {
		return fmt.Errorf("%w: %d > %d", ErrPageSize, len(data), d.pageSize)
	}
	if d.fault != nil {
		if err := d.fault("write", id); err != nil {
			return err
		}
	}
	d.shardFor(id).writes.Add(1)
	d.markDirty(id)
	p := d.pages[id]
	if p == nil || d.isShared(id) {
		// A fork must not zero a page slice it still shares with its
		// parent — install a private copy instead.
		p = make([]byte, d.pageSize)
		d.pages[id] = p
		if d.owned != nil {
			d.owned[id] = true
		}
	} else {
		for i := range p {
			p[i] = 0
		}
	}
	copy(p, data)
	return nil
}

// Stats returns a snapshot of the I/O counters: the sum over all
// shards. Under quiescence the snapshot is exact; concurrent operations
// land in either the before or the after of a windowed delta, never
// nowhere.
// Code that needs per-query exactness on a concurrently shared disk
// should not take windowed deltas here at all — it should evaluate on
// an Arena, whose Stats are query-private by construction.
func (d *Disk) Stats() Stats {
	var s Stats
	for i := range d.shards {
		sh := &d.shards[i]
		s.Reads += sh.reads.Load()
		s.Writes += sh.writes.Load()
		s.Allocs += sh.allocs.Load()
		s.Frees += sh.frees.Load()
	}
	return s
}

// ResetStats zeroes the I/O counters (page contents are unaffected).
// Callers must ensure no operation is in flight, the same quiescence
// every windowed delta already requires.
func (d *Disk) ResetStats() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.reads.Store(0)
		sh.writes.Store(0)
		sh.allocs.Store(0)
		sh.frees.Store(0)
	}
}

// NumPages returns the number of pages ever allocated and still live.
func (d *Disk) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages) - 1 - len(d.free)
}

// snapshot format: magic, page size, slot count, free-list, then one
// presence byte + page image per slot. Snapshot I/O is not counted in
// Stats — it is backup traffic, not query evaluation.
var snapshotMagic = [8]byte{'D', 'I', 'R', 'K', 'I', 'T', 'D', '1'}

// WriteTo serializes the whole device in canonical form: trailing free
// slots are trimmed from the slot count and dropped from the free list.
// Scratch allocations (query evaluation materializes temporary posting
// lists on the device and frees them) would otherwise leave a tail of
// free slots whose size depends on query history, making two disks with
// identical live contents serialize differently. Interior free slots
// are kept — their ids are pinned by the pages around them — but carry
// no image (freeing nils the page), so they cost one presence byte.
func (d *Disk) WriteTo(w io.Writer) (int64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	freeSet := make(map[PageID]bool, len(d.free))
	for _, f := range d.free {
		freeSet[f] = true
	}
	nOut := len(d.pages)
	for nOut > 1 && freeSet[PageID(nOut-1)] {
		nOut--
	}
	free := make([]PageID, 0, len(d.free))
	for _, f := range d.free {
		if int(f) < nOut {
			free = append(free, f)
		}
	}
	bw := &countWriter{w: w}
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return bw.n, err
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(d.pageSize))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(nOut))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(free)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return bw.n, err
	}
	var id [4]byte
	for _, f := range free {
		binary.LittleEndian.PutUint32(id[:], uint32(f))
		if _, err := bw.Write(id[:]); err != nil {
			return bw.n, err
		}
	}
	for _, p := range d.pages[1:nOut] {
		if p == nil {
			if _, err := bw.Write([]byte{0}); err != nil {
				return bw.n, err
			}
			continue
		}
		if _, err := bw.Write([]byte{1}); err != nil {
			return bw.n, err
		}
		if _, err := bw.Write(p); err != nil {
			return bw.n, err
		}
	}
	return bw.n, nil
}

// ReadDisk deserializes a device previously written with WriteTo.
func ReadDisk(r io.Reader) (*Disk, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != snapshotMagic {
		return nil, errors.New("pager: not a disk snapshot")
	}
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[0:]))
	if pageSize <= 0 || pageSize > 1<<24 {
		return nil, fmt.Errorf("pager: implausible page size %d", pageSize)
	}
	d := NewDisk(pageSize)
	nPages := int(binary.LittleEndian.Uint32(hdr[4:]))
	nFree := int(binary.LittleEndian.Uint32(hdr[8:]))
	if nPages < 1 || nFree < 0 || nFree > nPages {
		return nil, errors.New("pager: corrupt snapshot header")
	}
	// Declared counts are never trusted with an up-front allocation:
	// the slices grow as bytes actually arrive, so a lying header on a
	// truncated stream fails at the truncation point instead of
	// demanding gigabytes (core's FuzzOpenSnapshot feeds exactly such
	// headers through here).
	var id [4]byte
	for i := 0; i < nFree; i++ {
		if _, err := io.ReadFull(br, id[:]); err != nil {
			return nil, fmt.Errorf("pager: truncated free list: %w", err)
		}
		f := PageID(binary.LittleEndian.Uint32(id[:]))
		if int(f) < 1 || int(f) >= nPages {
			return nil, fmt.Errorf("pager: free-list page %d out of range", f)
		}
		d.free = append(d.free, f)
	}
	d.pages = d.pages[:1]
	var present [1]byte
	for i := 1; i < nPages; i++ {
		if _, err := io.ReadFull(br, present[:]); err != nil {
			return nil, fmt.Errorf("pager: truncated page directory: %w", err)
		}
		if present[0] == 0 {
			d.pages = append(d.pages, nil)
			continue
		}
		p := make([]byte, d.pageSize)
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, fmt.Errorf("pager: truncated page image: %w", err)
		}
		d.pages = append(d.pages, p)
	}
	return d, nil
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
