package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"repro/internal/durable"
	"repro/internal/pager"
)

// Checkpoint durably persists the read snapshot current at call time
// into ds, keyed by its generation, and reports the generation written.
// It never blocks readers or writers: the snapshot is one immutable
// value loaded from the atomic pointer, so serialization proceeds
// while queries evaluate and while an Update builds the next
// generation off-line. Checkpointing an already-persisted generation
// is a no-op (the common case for periodic checkpoint loops between
// writes).
//
// Under Options.DeltaCheckpoints the payload is a page delta against
// the newest durable generation whenever the update lineage permits
// (see deltaPlan); otherwise — and always by default — it is a
// self-contained full image. A failed delta commit falls back to a
// full image for the same generation, so delta mode never makes a
// checkpoint less likely to succeed.
//
// The durable store acknowledges only after the fsync that covers the
// generation's frame (and, for a full image starting a new log file,
// the directory fsync after it); a nil return therefore means this
// generation survives kill -9 from here on.
func (d *Directory) Checkpoint(ds *durable.Store) (int64, error) {
	snap := d.snap.Load()
	if newest, ok := ds.Newest(); ok && newest == snap.gen {
		return snap.gen, nil
	}
	if d.opts.DeltaCheckpoints {
		if base, dirty, ok := d.deltaPlan(ds, snap); ok {
			err := ds.CommitDelta(snap.gen, base, func(w io.Writer) error {
				return writeDeltaSnapshot(snap, base, dirty, w)
			})
			if err == nil {
				d.pruneLineage(snap.gen)
				return snap.gen, nil
			}
			// Fall through to a full image: a failed delta commit (base
			// pruned underfoot, an I/O fault mid-write) must not wedge
			// checkpointing, and committing the same generation again
			// replaces whatever the failed attempt left behind.
		}
	}
	err := ds.Commit(snap.gen, func(w io.Writer) error {
		return writeSnapshot(snap, w)
	})
	if err != nil {
		return 0, err
	}
	d.pruneLineage(snap.gen)
	return snap.gen, nil
}

// deltaPlan decides whether the next checkpoint can be a page delta,
// and against what. Three conditions gate it: the in-memory lineage
// must link snap.gen down to the newest durable generation (any
// full-rebuild Update in between breaks the chain); the dirty union
// must stay under half the device — past that a full image is barely
// larger to write and far cheaper to recover; and the chain's delta
// frames, this one's pages included, must weigh less than the full
// image beneath them. The last is the fold rule: it holds what
// recovery reads under twice the image, and what a run of writes
// commits under twice their deltas plus the images, whatever the
// retention window is (a delta lives in its base's log file, so the
// durable store retains every base a retained delta replays through).
func (d *Directory) deltaPlan(ds *durable.Store, snap *snapshot) (base int64, dirty []pager.PageID, ok bool) {
	newest, has := ds.Newest()
	if !has || newest >= snap.gen {
		return 0, nil, false
	}
	union := make(map[pager.PageID]struct{})
	d.lineageMu.Lock()
	g := snap.gen
	for g > newest {
		rec, found := d.lineage[g]
		if !found {
			d.lineageMu.Unlock()
			return 0, nil, false
		}
		for _, id := range rec.dirty {
			union[id] = struct{}{}
		}
		g = rec.parent
	}
	d.lineageMu.Unlock()
	if g != newest {
		return 0, nil, false
	}
	disk := snap.st.Disk()
	if 2*len(union) >= disk.NumPages() {
		return 0, nil, false
	}
	if chain := ds.Chain(); chain.DeltaBytes+int64(len(union))*int64(disk.PageSize()) >= chain.BaseBytes {
		return 0, nil, false
	}
	dirty = make([]pager.PageID, 0, len(union))
	for id := range union {
		dirty = append(dirty, id)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	return newest, dirty, true
}

// RecoverInfo describes what Recover found.
type RecoverInfo struct {
	// Gen is the generation the directory was restored to (0 when
	// Fresh).
	Gen int64
	// Skipped counts newer generations that failed verification and
	// were rolled past (and dropped from the store).
	Skipped int
	// Fresh reports an empty durable store: no generation existed, and
	// the caller should build the directory from its bootstrap source
	// and checkpoint it.
	Fresh bool
}

// Recover reconstructs a Directory from the newest intact generation
// in ds, walking the recovery ladder: generations are verified
// newest-first (envelope checksums in the durable store, then the full
// snapshot decode here), corrupt ones are counted, dropped, and rolled
// past. A delta generation is intact only if its whole base chain is —
// every payload down to a full image, decodable and replayable; damage
// anywhere in the chain fails that rung and recovery moves one
// generation down the ladder, which (a delta lives in its base's log
// file) always reaches a full image. A damaged delta therefore costs
// every generation above it in its chain, and a rung that replays
// through a frame already found unreadable fails without reading
// anything again. The restored Directory continues the
// durable lineage — its generation is the recovered one, so the next
// Update produces gen+1 and the next Checkpoint slots right after the
// recovered frame. Its update lineage starts empty, which is as much
// as a delta needs: the recovered generation is the newest durable one,
// so an UpdateEntries write on it checkpoints as a delta that extends
// the recovered chain.
//
// An empty store is not an error: the returned info has Fresh set and
// the Directory is nil — bootstrap, then Checkpoint. A store whose
// every generation is corrupt returns durable.ErrNoIntactGeneration;
// refusing to serve beats serving a torn state.
func Recover(ds *durable.Store, opts Options) (*Directory, RecoverInfo, error) {
	var info RecoverInfo
	gens := ds.Generations()
	if len(gens) == 0 {
		info.Fresh = true
		return nil, info, nil
	}
	bad := make(map[int64]bool) // generations no rung can replay through
	for i := len(gens) - 1; i >= 0; i-- {
		gen := gens[i]
		dir, err := recoverGeneration(ds, opts, gen, bad)
		if err != nil {
			// Checksum damage, a broken delta chain, or a semantically
			// undecodable payload — all just rungs on the ladder.
			info.Skipped++
			continue
		}
		if info.Skipped > 0 {
			// Drop the corrupt newer rungs so the write path resumes
			// cleanly from this lineage.
			if err := ds.Rollback(gen); err != nil {
				return nil, info, fmt.Errorf("core: pruning corrupt generations: %w", err)
			}
		}
		info.Gen = gen
		return dir, info, nil
	}
	return nil, info, fmt.Errorf("core: recover: %w", durable.ErrNoIntactGeneration)
}

// recoverGeneration materializes one generation. A full image decodes
// directly. A delta payload chases base-generation links (read from
// payload content, which the payload checksum covers) down to a full
// image, replays the page deltas oldest-first onto it, and assembles
// with the newest payload's schema and manifest. Any failure anywhere
// along the chain fails the whole rung; a frame that cannot be loaded
// or decoded is recorded in bad with the generations that led to it, so
// that the ladder's later rungs, which share the chain's lower part,
// stop at them.
func recoverGeneration(ds *durable.Store, opts Options, gen int64, bad map[int64]bool) (*Directory, error) {
	var deltas []*deltaParts // newest first
	cur := gen
	seen := make(map[int64]bool)
	fail := func(err error) (*Directory, error) {
		for g := range seen {
			bad[g] = true
		}
		return nil, err
	}
	for {
		if seen[cur] {
			return fail(fmt.Errorf("%w: delta base chain cycles at generation %d", ErrCorruptSnapshot, cur))
		}
		seen[cur] = true
		if bad[cur] {
			return fail(fmt.Errorf("%w: generation %d replays through unreadable generation %d", ErrCorruptSnapshot, gen, cur))
		}
		payload, err := ds.Load(cur)
		if err != nil {
			return fail(err)
		}
		if bytes.HasPrefix(payload, snapshotDeltaMagic[:]) {
			dp, err := decodeDeltaSnapshot(payload)
			if err != nil {
				return fail(err)
			}
			dp.gen = cur
			deltas = append(deltas, dp)
			cur = dp.baseGen
			continue
		}
		parts, err := decodeSnapshot(bytes.NewReader(payload))
		if err != nil {
			return fail(err)
		}
		for j := len(deltas) - 1; j >= 0; j-- {
			if err := parts.disk.ApplyDelta(deltas[j].pages); err != nil {
				for _, dp := range deltas[:j+1] {
					bad[dp.gen] = true
				}
				return nil, fmt.Errorf("%w: page delta for generation %d: %v", ErrCorruptSnapshot, deltas[j].gen, err)
			}
		}
		if len(deltas) > 0 {
			// The image now holds the newest generation's pages; describe
			// it with the newest payload's metadata, not the base's.
			parts.schema = deltas[0].schema
			parts.manifest = deltas[0].manifest
		}
		return assembleSnapshot(parts, opts, gen)
	}
}
