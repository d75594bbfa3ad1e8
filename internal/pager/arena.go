package pager

import "sync/atomic"

// Meter is a concurrency-safe Stats sink: an atomic counter set that
// read paths (ReadHandle, Disk.CountRead) add to as they touch pages
// of a shared device. It gives a single query exact I/O attribution on
// a disk other queries are reading concurrently — the case the
// windowed-delta ownership rule (see Stats) forbids.
type Meter struct {
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64
}

// Add accumulates s into the meter (nil-safe: a nil Meter discards).
func (m *Meter) Add(s Stats) {
	if m == nil {
		return
	}
	if s.Reads != 0 {
		m.reads.Add(s.Reads)
	}
	if s.Writes != 0 {
		m.writes.Add(s.Writes)
	}
	if s.Allocs != 0 {
		m.allocs.Add(s.Allocs)
	}
	if s.Frees != 0 {
		m.frees.Add(s.Frees)
	}
}

// Stats snapshots the meter (zero for a nil Meter).
func (m *Meter) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return Stats{
		Reads:  m.reads.Load(),
		Writes: m.writes.Load(),
		Allocs: m.allocs.Load(),
		Frees:  m.frees.Load(),
	}
}

// Arena is the per-query evaluation workspace that makes lock-free
// concurrent reads possible: every page an evaluation writes
// (intermediate lists, spools, sort runs, stacks, annotation files,
// the result list) goes to a private scratch disk, and every page it
// reads from the shared base disk (master-list entries, index pages)
// is additionally counted on the arena's meter. A published base disk
// is sealed and never written, so any number of arenas evaluate
// concurrently, and each one's Stats are exact without any
// serialization. It is the only evaluation mode: nothing takes windowed
// Disk.Stats deltas of a shared disk.
type Arena struct {
	base    *Disk
	scratch *Disk
	meter   Meter
}

// NewArena creates a workspace over the shared base device. The scratch
// disk inherits the base's page size, so blocking-factor arithmetic
// (records per page) is identical wherever a list lands.
func NewArena(base *Disk) *Arena {
	return &Arena{base: base, scratch: NewDisk(base.PageSize())}
}

// Base returns the shared read-only device.
func (a *Arena) Base() *Disk { return a.base }

// Scratch returns the query-private device for intermediates and
// results.
func (a *Arena) Scratch() *Disk { return a.scratch }

// Meter returns the sink counting this arena's reads of the base disk.
func (a *Arena) Meter() *Meter { return &a.meter }

// Stats returns the total I/O this arena's evaluation performed:
// everything on the private scratch disk plus the metered reads of the
// shared base disk. Exact under any concurrency, because both halves
// are private to the arena.
func (a *Arena) Stats() Stats {
	return a.scratch.Stats().Add(a.meter.Stats())
}
