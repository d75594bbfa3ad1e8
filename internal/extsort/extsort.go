// Package extsort implements external merge sort over paged record
// lists: bounded-memory run formation followed by multiway merging.
//
// It supplies the "sort LP based on the lexicographic ordering of the
// reverse of the dn's in the first column" step of Algorithm
// ComputeERAggDV (Figure 3 of "Querying Network Directories") and is
// responsible for the O((|L2|·m/B)·log(|L2|·m/B)) term in Theorem 7.1's
// I/O bound. It is also used to sort atomic-query outputs delivered by
// indexes that do not produce reverse-DN order.
//
// Unlike plist.Merge, the merge here preserves duplicate keys: the list
// of pairs LP legitimately contains several pairs with the same embedded
// DN.
//
// With Config.Workers > 1 the sorter overlaps work in both phases:
// filled batches are sorted and written as runs by a bounded pool of
// goroutines while the input scan continues, and each merge pass merges
// its FanIn-sized groups concurrently. Batch boundaries, run order, and
// the merge tree are fixed by the input alone — never by goroutine
// scheduling — so the output list is identical for any worker count
// (DESIGN.md §9).
package extsort

import (
	"io"
	"sort"
	"sync"

	"repro/internal/pager"
	"repro/internal/plist"
)

// Config tunes the sorter. The zero value gets sensible defaults.
type Config struct {
	// MemBytes bounds the in-memory run-formation buffer (default: 64
	// pages worth). Larger buffers mean fewer, longer runs.
	MemBytes int
	// FanIn bounds how many runs are merged per pass (default 16).
	FanIn int
	// Workers bounds the goroutines used for concurrent run formation
	// and parallel merge passes; 0 or 1 sorts serially. With W workers
	// up to W batches are in flight at once, so peak run-formation
	// memory is W × MemBytes. Output is identical at any setting.
	Workers int
}

func (c Config) withDefaults(d *pager.Disk) Config {
	if c.MemBytes <= 0 {
		c.MemBytes = 64 * d.PageSize()
	}
	if c.FanIn < 2 {
		c.FanIn = 16
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// Sort consumes records from in (any order) and returns a list sorted by
// key, duplicates preserved in stable order.
func Sort(d *pager.Disk, in plist.RecordReader, cfg Config) (*plist.List, error) {
	cfg = cfg.withDefaults(d)
	runs, err := formRuns(d, in, cfg)
	if err != nil {
		return nil, err
	}
	return mergeRuns(d, runs, cfg)
}

// SortSlice sorts an in-memory record slice onto disk; a convenience for
// operators that already materialized small intermediates.
func SortSlice(d *pager.Disk, recs []*plist.Record, cfg Config) (*plist.List, error) {
	return Sort(d, plist.NewSliceReader(recs), cfg)
}

// formRuns reads the input, accumulating up to MemBytes of records,
// sorting each batch in memory and writing it out as a sorted run.
//
// The input scan is always serial (RecordReaders are single-goroutine),
// so batch boundaries — and therefore the runs' contents and order —
// are identical at every worker count. With Workers > 1 the sort+write
// of each filled batch is handed to a pool goroutine (ownership of the
// batch slice transfers with it; the scan allocates a fresh one) while
// the scan keeps reading.
func formRuns(d *pager.Disk, in plist.RecordReader, cfg Config) ([]*plist.List, error) {
	// runSlot receives one batch's finished run; slots are appended in
	// batch order, and workers fill their own slot through its pointer,
	// so slice growth in the scanning goroutine never races them.
	type runSlot struct {
		list *plist.List
		err  error
	}
	var (
		slots []*runSlot
		batch []*plist.Record
		bytes int
		wg    sync.WaitGroup
		sem   chan struct{}
	)
	if cfg.Workers > 1 {
		sem = make(chan struct{}, cfg.Workers)
	}
	writeRun := func(batch []*plist.Record, s *runSlot) {
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].Key < batch[j].Key })
		w := plist.NewWriter(d)
		for _, r := range batch {
			if err := w.Append(r); err != nil {
				s.err = err
				return
			}
		}
		s.list, s.err = w.Close()
	}
	flush := func() {
		if len(batch) == 0 {
			return
		}
		s := &runSlot{}
		slots = append(slots, s)
		b := batch
		batch, bytes = nil, 0
		if sem == nil {
			writeRun(b, s)
			batch = b[:0] // serial path: safe to reuse the slice
			return
		}
		sem <- struct{}{} // bounds in-flight batches to Workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			writeRun(b, s)
		}()
	}
	var scanErr error
	for {
		rec, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			scanErr = err
			break
		}
		// A batch outlives the input's next record, so it holds copies.
		batch = append(batch, rec.Clone())
		// The same coarse footprint estimate the sorter has always sized
		// batches by — per pair, not per encoded byte — so run boundaries,
		// and with them the page I/O, stay where they were.
		bytes += len(rec.Key) + 64 + 32*rec.NumPairs()
		if bytes >= cfg.MemBytes {
			flush()
		}
	}
	if scanErr == nil {
		flush()
	}
	wg.Wait()
	runs := make([]*plist.List, 0, len(slots))
	for _, s := range slots {
		if s.err != nil && scanErr == nil {
			scanErr = s.err
		}
		if s.list != nil {
			runs = append(runs, s.list)
		}
	}
	if scanErr != nil {
		for _, r := range runs {
			_ = r.Free()
		}
		return nil, scanErr
	}
	return runs, nil
}

// mergeRuns repeatedly merges groups of FanIn runs until one remains.
// Groups within a pass touch disjoint runs, so with Workers > 1 they
// merge concurrently; the next pass's run order is the group order
// either way, keeping the merge tree — and the final list — identical
// at any worker count.
func mergeRuns(d *pager.Disk, runs []*plist.List, cfg Config) (*plist.List, error) {
	if len(runs) == 0 {
		return plist.Build(d, nil)
	}
	for len(runs) > 1 {
		var groups [][]*plist.List
		for lo := 0; lo < len(runs); lo += cfg.FanIn {
			hi := lo + cfg.FanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			groups = append(groups, runs[lo:hi])
		}
		next := make([]*plist.List, len(groups))
		errs := make([]error, len(groups))
		if cfg.Workers > 1 && len(groups) > 1 {
			sem := make(chan struct{}, cfg.Workers)
			var wg sync.WaitGroup
			for gi, g := range groups {
				sem <- struct{}{}
				wg.Add(1)
				go func(gi int, g []*plist.List) {
					defer wg.Done()
					defer func() { <-sem }()
					next[gi], errs[gi] = mergeGroup(d, g)
				}(gi, g)
			}
			wg.Wait()
		} else {
			for gi, g := range groups {
				next[gi], errs[gi] = mergeGroup(d, g)
			}
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		runs = next
	}
	return runs[0], nil
}

// mergeGroup merges one group of runs and frees the inputs (each group
// reads only its own runs, so concurrent groups never touch each
// other's pages).
func mergeGroup(d *pager.Disk, g []*plist.List) (*plist.List, error) {
	merged, err := mergeOnce(d, g)
	if err != nil {
		return nil, err
	}
	for _, r := range g {
		if err := r.Free(); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// mergeOnce merges sorted runs into one sorted list, preserving
// duplicate keys (stable across run order).
func mergeOnce(d *pager.Disk, runs []*plist.List) (*plist.List, error) {
	if len(runs) == 1 {
		// Copy so the caller may free the input uniformly.
		return plist.Materialize(d, runs[0].Reader())
	}
	readers := make([]*plist.Reader, len(runs))
	heads := make([]*plist.Record, len(runs))
	for i, r := range runs {
		readers[i] = r.Reader()
	}
	w := plist.NewWriter(d)
	for {
		min := -1
		for i := range readers {
			if heads[i] == nil && readers[i] != nil {
				rec, err := readers[i].Next()
				if err == io.EOF {
					readers[i] = nil
				} else if err != nil {
					return nil, err
				} else {
					heads[i] = rec
				}
			}
			if heads[i] != nil && (min == -1 || heads[i].Key < heads[min].Key) {
				min = i
			}
		}
		if min == -1 {
			return w.Close()
		}
		if err := w.Append(heads[min]); err != nil {
			return nil, err
		}
		heads[min] = nil
	}
}
