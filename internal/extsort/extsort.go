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
package extsort

import (
	"io"
	"sort"

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
}

func (c Config) withDefaults(d *pager.Disk) Config {
	if c.MemBytes <= 0 {
		c.MemBytes = 64 * d.PageSize()
	}
	if c.FanIn < 2 {
		c.FanIn = 16
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
// sorting each batch in memory and writing it out as a sorted run. It
// stops at the first error, after freeing the runs already written.
func formRuns(d *pager.Disk, in plist.RecordReader, cfg Config) ([]*plist.List, error) {
	var (
		runs  []*plist.List
		batch []*plist.Record
		bytes int
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		sort.SliceStable(batch, func(i, j int) bool { return batch[i].Key < batch[j].Key })
		w := plist.NewWriter(d)
		for _, r := range batch {
			if err := w.Append(r); err != nil {
				return err
			}
		}
		run, err := w.Close()
		if err != nil {
			return err
		}
		runs = append(runs, run)
		batch, bytes = batch[:0], 0
		return nil
	}
	fail := func(err error) ([]*plist.List, error) {
		freeRuns(runs)
		return nil, err
	}
	for {
		rec, err := in.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(err)
		}
		// A batch outlives the input's next record, so it holds copies.
		batch = append(batch, rec.Clone())
		// The same coarse footprint estimate the sorter has always sized
		// batches by — per pair, not per encoded byte — so run boundaries,
		// and with them the page I/O, stay where they were.
		bytes += len(rec.Key) + 64 + 32*rec.NumPairs()
		if bytes >= cfg.MemBytes {
			if err := flush(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flush(); err != nil {
		return fail(err)
	}
	return runs, nil
}

// mergeRuns repeatedly merges groups of FanIn runs until one remains;
// each pass's output runs are in group order. It owns runs: on error it
// frees every run it still holds, the pass's unmerged rest and the
// merged runs it already wrote.
func mergeRuns(d *pager.Disk, runs []*plist.List, cfg Config) (*plist.List, error) {
	if len(runs) == 0 {
		return plist.Build(d, nil)
	}
	for len(runs) > 1 {
		var next []*plist.List
		for lo := 0; lo < len(runs); lo += cfg.FanIn {
			hi := min(lo+cfg.FanIn, len(runs))
			merged, err := mergeGroup(d, runs[lo:hi])
			if err != nil {
				freeRuns(runs[hi:])
				freeRuns(next)
				return nil, err
			}
			next = append(next, merged)
		}
		runs = next
	}
	return runs[0], nil
}

// mergeGroup merges one group of runs and frees the inputs, whether or
// not the merge succeeds.
func mergeGroup(d *pager.Disk, g []*plist.List) (*plist.List, error) {
	merged, err := mergeOnce(d, g)
	for _, r := range g {
		if ferr := r.Free(); err == nil {
			err = ferr
		}
	}
	if err != nil {
		if merged != nil {
			_ = merged.Free()
		}
		return nil, err
	}
	return merged, nil
}

// freeRuns frees runs, best effort: it runs on an error path, whose
// first error is the one reported.
func freeRuns(runs []*plist.List) {
	for _, r := range runs {
		_ = r.Free()
	}
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
					return nil, w.Abort(err)
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
