package bench

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/workload"
)

// E24DeltaCheckpoint measures the incremental-checkpoint path end to
// end: a one-entry write applied through the copy-on-write fast path
// (UpdateEntries) against the same write applied by full rebuild, and
// the bytes a checkpoint of that write costs as a page delta against
// the previous generation versus as a full image. Reported per
// directory size: both update latencies, the dirty page count out of
// the device total, both checkpoint sizes with the shrink factor, and —
// one-entry writes continuing, each checkpointed — the delta chain as
// it stands when the next checkpoint is a full image again.
//
// The experiment is self-checking twice over: the shrink factor must
// reach 10× (the point of the feature), and the delta chain is
// recovered from disk after each run and its answers compared with the
// live directory's — a delta that shrinks by dropping state fails the
// bench rather than flattering it.
func E24DeltaCheckpoint(sizes []int) *Table {
	t := &Table{
		ID:     "E24",
		Title:  "Incremental checkpoints: one-entry write, page delta vs full image",
		Claim:  "entry-level writes dirty O(log N) pages; their checkpoints shrink >=10x",
		Header: []string{"entries", "update fast (µs)", "update rebuild (µs)", "dirty/total pages", "full ckpt (B)", "delta ckpt (B)", "shrink", "chain at fold (deltas, B)"},
	}
	for _, n := range sizes {
		in := workload.GenTOPS(workload.TOPSConfig{Subscribers: n, Seed: 13})
		dir, err := core.Open(in, core.Options{DeltaCheckpoints: true})
		if err != nil {
			panic(err)
		}
		tmp, err := os.MkdirTemp("", "bench-e24")
		if err != nil {
			panic(err)
		}
		fs, err := pager.DirFS(tmp)
		if err != nil {
			panic(err)
		}
		ds, err := durable.Open(fs, durable.Options{})
		if err != nil {
			panic(err)
		}

		if _, err := dir.Checkpoint(ds); err != nil {
			panic(err)
		}
		fullBytes := segSize(fs, 1)

		e, err := model.NewEntryFromDN(in.Schema(),
			model.MustParseDN("uid=delta-probe, ou=userProfiles, dc=research, dc=att, dc=com"))
		if err != nil {
			panic(err)
		}
		e.AddClass("inetOrgPerson")
		e.Add("surName", model.String("delta-probe"))
		start := time.Now()
		if err := dir.UpdateEntries(store.EntryOp{Add: e.Clone()}); err != nil {
			panic(err)
		}
		fastLat := time.Since(start)
		dirty, total := dir.Disk().DirtyCount(), dir.Disk().NumPages()

		if _, err := dir.Checkpoint(ds); err != nil {
			panic(err)
		}
		deltaBytes := segSize(fs, 2)
		shrink := float64(fullBytes) / float64(deltaBytes)
		if shrink < 10 {
			panic(fmt.Sprintf("bench: E24 delta shrink %.1fx < 10x at n=%d (full %d B, delta %d B)",
				shrink, n, fullBytes, deltaBytes))
		}

		// Recover the full-image + delta chain from disk and require the
		// same answers as the live directory.
		back, info, err := core.Recover(ds, core.Options{DeltaCheckpoints: true})
		if err != nil {
			panic(err)
		}
		if info.Gen != 2 || info.Skipped != 0 {
			panic(fmt.Sprintf("bench: E24 recovery landed at %+v, want gen 2", info))
		}
		for _, q := range []string{
			"(dc=com ? sub ? surName=delta-probe)",
			"(dc=com ? sub ? objectClass=TOPSSubscriber)",
		} {
			live, err := dir.Search(q)
			if err != nil {
				panic(err)
			}
			rec, err := back.Search(q)
			if err != nil {
				panic(err)
			}
			if got, want := rec.DNs(), live.DNs(); strings.Join(got, "\n") != strings.Join(want, "\n") {
				panic(fmt.Sprintf("bench: E24 %s: recovered answer diverges (%d vs %d entries)", q, len(got), len(want)))
			}
		}

		// One-entry writes, each checkpointed, until the chain folds: the
		// deltas must have stayed lighter than the image under them, and
		// come within two deltas of it before the full image was taken.
		var atFold durable.Chain
		for i := 0; ; i++ {
			w, err := model.NewEntryFromDN(in.Schema(),
				model.MustParseDN(fmt.Sprintf("uid=fold-probe-%d, ou=userProfiles, dc=research, dc=att, dc=com", i)))
			if err != nil {
				panic(err)
			}
			w.AddClass("inetOrgPerson")
			w.Add("surName", model.String("fold-probe"))
			if err := dir.UpdateEntries(store.EntryOp{Add: w}); err != nil {
				panic(err)
			}
			gen, err := dir.Checkpoint(ds)
			if err != nil {
				panic(err)
			}
			if base, _ := ds.BaseOf(gen); base == 0 {
				break
			}
			atFold = ds.Chain()
		}
		if atFold.DeltaBytes >= atFold.BaseBytes || atFold.DeltaBytes+2*deltaBytes < atFold.BaseBytes {
			panic(fmt.Sprintf("bench: E24 chain folded at %+v, want delta bytes just under the image's at n=%d", atFold, n))
		}

		// The same one-entry write through the rebuild path, for the
		// latency column (a fresh uid so the add is valid).
		e2, err := model.NewEntryFromDN(in.Schema(),
			model.MustParseDN("uid=rebuild-probe, ou=userProfiles, dc=research, dc=att, dc=com"))
		if err != nil {
			panic(err)
		}
		e2.AddClass("inetOrgPerson")
		e2.Add("surName", model.String("rebuild-probe"))
		start = time.Now()
		if err := dir.Update(func(in *model.Instance) error { return in.Add(e2) }); err != nil {
			panic(err)
		}
		rebuildLat := time.Since(start)

		t.AddRow(n, fastLat.Microseconds(), rebuildLat.Microseconds(),
			fmt.Sprintf("%d/%d", dirty, total), fullBytes, deltaBytes,
			fmt.Sprintf("%.0fx", shrink), fmt.Sprintf("%d, %d", atFold.Deltas, atFold.DeltaBytes))
		os.RemoveAll(tmp)
	}
	t.Notes = append(t.Notes,
		"fast path: UpdateEntries forks the page device copy-on-write and edits in place the B-tree leaves the entry lands in",
		"delta checkpoint carries only the dirtied pages against the previous retained generation (core snapshot delta format, DESIGN.md §15)",
		"self-check: shrink >= 10x enforced, and the full+delta chain is recovered from disk with answers compared to the live directory",
		"chain at fold: checkpoints stay deltas until their bytes would reach the full image's, whatever the retention window (3 here)")
	return t
}

// segSize stats one committed generation's segment file.
func segSize(fs pager.FileSystem, gen int64) int64 {
	sz, err := fs.Size(fmt.Sprintf("seg-%016d.seg", gen))
	if err != nil {
		panic(fmt.Sprintf("bench: E24 segment for gen %d: %v", gen, err))
	}
	return sz
}
