// Package durable is the crash-safe on-disk snapshot store beneath
// core.Directory: a flat directory of generation-numbered,
// CRC32C-checksummed segment files plus a manifest, committed with the
// classic write-temp → fsync → atomic-rename → fsync-dir protocol and
// read back through a recovery ladder that falls generation-by-
// generation to the newest intact image.
//
// The store never overwrites committed bytes in place: a commit builds
// the whole segment beside the live files and becomes visible in one
// rename, so a crash — or any injected storage fault
// (internal/faultfs) — at any instruction boundary leaves either the
// previous committed state or the new one, never a mix. The last Keep
// generations are retained for rollback, and with them every older
// segment one of them is a page delta against, directly or through
// other deltas; everything else is pruned after the manifest that stops
// referencing it is durably committed.
//
// DESIGN.md §11 walks through the commit protocol and the recovery
// ladder; internal/durable/crashtest kill -9s a live server through
// this package ≥30 times and asserts every restart serves the last
// durably acknowledged generation byte-identically.
package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pager"
)

// Store-level errors.
var (
	// ErrEmpty is returned by Recover when the store holds no segment
	// at all — a fresh data directory, not a corrupt one.
	ErrEmpty = errors.New("durable: no generations in store")
	// ErrNoIntactGeneration is returned by Recover when segments exist
	// but every one failed verification — the ladder ran out of rungs.
	ErrNoIntactGeneration = errors.New("durable: no intact generation")
)

// Options configures a Store.
type Options struct {
	// Keep is how many newest generations to retain for rollback
	// (default 3, minimum 1). Older segments are pruned once a manifest
	// that no longer references them is durably committed, except those
	// a retained delta replays through. It does not bound how long a
	// chain of deltas may grow: the committer decides that (Chain).
	Keep int
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Commits        int64 // successful Commit calls
	CommitBytes    int64 // payload bytes across successful commits
	BytesFsynced   int64 // bytes written and fsynced (segments + manifests)
	CorruptSkips   int64 // corrupt segments skipped by verification
	Recoveries     int64 // Recover calls that landed on an intact generation
	OrphansRemoved int64 // leftover *.tmp files removed at Open
	Pruned         int64 // old generation segments pruned
}

// segEntry is one manifest row: where a generation lives and what its
// intact form looks like (size and payload checksum, letting the
// ladder cross-check a segment against what the committer recorded).
type segEntry struct {
	Gen  int64  `json:"gen"`
	File string `json:"file"`
	Size int64  `json:"size"` // whole file: header + payload
	CRC  uint32 `json:"crc"`  // CRC32C of the payload
	// Base is the generation this segment is a page delta against; 0
	// marks a self-contained full image. Pruning retains the transitive
	// base closure of every kept segment, so an acknowledged delta's
	// recovery chain can never be pruned out from under it. baseUnknown
	// marks an entry rebuilt from the file alone, which does not say.
	Base int64 `json:"base,omitempty"`
}

// baseUnknown is the Base of an entry the directory scan rebuilt after
// the manifest was lost: only the payload, which this package does not
// parse, says whether the segment is a delta and against what. Such an
// entry may need any older segment, and pruning treats it so; it is
// written to the next manifest as it is, so the doubt outlives a reopen
// and ends when the entry leaves the keep window.
const baseUnknown = -1

// manifestBody is the manifest payload: the retained generations,
// ascending.
type manifestBody struct {
	Generations []segEntry `json:"generations"`
}

// Store is a crash-safe snapshot store over one pager.FileSystem. All
// methods are safe for concurrent use; commits serialize internally.
type Store struct {
	fs   pager.FileSystem
	keep int

	mu      sync.Mutex // guards entries, manSeq, and the commit protocol
	entries []segEntry // current manifest view, ascending by generation
	manSeq  uint64     // manifest sequence number (bumps per manifest write)

	commits, commitBytes, bytesFsynced atomic.Int64
	corruptSkips, recoveries           atomic.Int64
	orphansRemoved, pruned             atomic.Int64
	latency                            *obs.Histogram // nil unless RegisterMetrics ran
}

const (
	manifestName = "MANIFEST"
	tmpSuffix    = ".tmp"
	segSuffix    = ".seg"
)

func segName(gen int64) string { return fmt.Sprintf("seg-%016d%s", gen, segSuffix) }

// Open attaches a Store to fs, removing orphaned *.tmp files a crashed
// commit left behind (they were never renamed, so they are by
// definition uncommitted) and loading the manifest. A missing or
// corrupt manifest is not fatal: the view is rebuilt by scanning the
// segment files themselves, so losing the manifest costs the cross-check
// and the record of which segment is a delta against which — until the
// rebuilt entries age out of the keep window, nothing older than them
// is pruned (baseUnknown).
func Open(fs pager.FileSystem, opts Options) (*Store, error) {
	if opts.Keep <= 0 {
		opts.Keep = 3
	}
	s := &Store{fs: fs, keep: opts.Keep}
	names, err := fs.List()
	if err != nil {
		return nil, fmt.Errorf("durable: list store: %w", err)
	}
	cleaned := false
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			if err := fs.Remove(name); err == nil {
				s.orphansRemoved.Add(1)
				cleaned = true
			}
		}
	}
	if cleaned {
		_ = fs.SyncRoot() // make the cleanup durable; best-effort
	}
	if err := s.loadManifest(names); err != nil {
		return nil, err
	}
	return s, nil
}

// loadManifest reads MANIFEST if intact, else rebuilds the view from
// the segment files present in names.
func (s *Store) loadManifest(names []string) error {
	if buf, err := s.readFile(manifestName); err == nil {
		if seq, payload, err := openEnvelope(manMagic, buf); err == nil {
			var body manifestBody
			if json.Unmarshal(payload, &body) == nil {
				s.manSeq = seq
				s.entries = body.Generations
				sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Gen < s.entries[j].Gen })
				return nil
			}
		}
		// An unreadable manifest is itself a corruption the ladder
		// absorbs: fall through to the scan.
		s.corruptSkips.Add(1)
	}
	s.entries = nil
	for _, name := range names {
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		var gen int64
		if _, err := fmt.Sscanf(name, "seg-%d.seg", &gen); err != nil {
			continue
		}
		size, err := s.fs.Size(name)
		if err != nil {
			continue
		}
		// CRC 0 means "no manifest cross-check": verification then
		// relies on the envelope alone.
		s.entries = append(s.entries, segEntry{Gen: gen, File: name, Size: size, Base: baseUnknown})
	}
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].Gen < s.entries[j].Gen })
	return nil
}

// Commit durably stores one generation: write serializes the payload.
// The protocol is write-temp → fsync → atomic-rename → fsync-dir for
// the segment, then the same four steps for the manifest that
// references it; only after both renames are durable are generations
// older than Keep pruned. An error anywhere leaves the store exactly
// as the previous commit left it — the temp file (removed best-effort,
// and at the latest by the next Open) is the only possible residue.
//
// Committing a generation that already exists replaces it: after a
// rollback recovery, the write path re-commits the recovered lineage
// over the abandoned one.
func (s *Store) Commit(gen int64, write func(w io.Writer) error) error {
	return s.commitEntry(gen, 0, write)
}

// CommitDelta durably stores one generation as a page delta against an
// already-retained base generation, under the same protocol and
// acknowledgment rules as Commit. The manifest records the dependency,
// and pruning keeps the transitive base closure of every retained
// segment, so the chain needed to replay an acknowledged delta is
// itself always retained.
func (s *Store) CommitDelta(gen, base int64, write func(w io.Writer) error) error {
	if base <= 0 || base >= gen {
		return fmt.Errorf("durable: delta gen %d has invalid base %d", gen, base)
	}
	s.mu.Lock()
	found := false
	for _, e := range s.entries {
		if e.Gen == base {
			found = true
			break
		}
	}
	s.mu.Unlock()
	if !found {
		return fmt.Errorf("durable: delta gen %d: base %d not in store", gen, base)
	}
	return s.commitEntry(gen, base, write)
}

func (s *Store) commitEntry(gen, base int64, write func(w io.Writer) error) error {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return fmt.Errorf("durable: serialize gen %d: %w", gen, err)
	}
	payload := buf.Bytes()
	sealed := sealEnvelope(segMagic, uint64(gen), payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	name := segName(gen)
	if err := s.writeFileAtomic(name, sealed); err != nil {
		return fmt.Errorf("durable: commit gen %d: %w", gen, err)
	}

	entry := segEntry{Gen: gen, File: name, Size: int64(len(sealed)), CRC: payloadCRC(sealed), Base: base}
	next := make([]segEntry, 0, len(s.entries)+1)
	for _, e := range s.entries {
		if e.Gen != gen {
			next = append(next, e)
		}
	}
	next = append(next, entry)
	sort.Slice(next, func(i, j int) bool { return next[i].Gen < next[j].Gen })
	drop, next := planPrune(next, s.keep)
	if err := s.writeManifest(next); err != nil {
		// The segment file exists but the manifest still describes the
		// previous state; the commit is not acknowledged. Recovery may
		// legitimately find the segment by scan — it is a complete,
		// checksummed image — but nothing depends on it.
		return fmt.Errorf("durable: commit gen %d manifest: %w", gen, err)
	}
	s.entries = next
	// Prune only after the manifest stopped referencing the old
	// generations — and only after reading the on-disk manifest back to
	// confirm it really is the one that dropped them. A crash (or a
	// lying rename) between manifest write and prune then leaves stray
	// files, never a manifest pointing at removed segments.
	if len(drop) > 0 && s.verifyManifestDropped(drop) {
		for _, e := range drop {
			if s.fs.Remove(e.File) == nil {
				s.pruned.Add(1)
			}
		}
		_ = s.fs.SyncRoot()
	}
	s.commits.Add(1)
	s.commitBytes.Add(int64(len(payload)))
	if s.latency != nil {
		s.latency.ObserveDuration(time.Since(start))
	}
	return nil
}

// planPrune splits a candidate manifest view into the entries to drop
// and the entries to retain: the newest keep generations plus,
// transitively, every base a retained delta depends on. A base pinned
// by a retained delta survives even when it falls outside the keep
// window — dropping it would leave the delta unreplayable, i.e. fewer
// than keep recoverable generations. A retained entry of unknown base
// pins every older entry. A base is older than its delta, so one pass
// from the newest entry down meets every delta before its base.
func planPrune(entries []segEntry, keep int) (drop, next []segEntry) {
	if len(entries) <= keep {
		return nil, entries
	}
	retain := make(map[int64]bool, keep)
	pinOlder := false
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if i < len(entries)-keep && !pinOlder && !retain[e.Gen] {
			continue
		}
		retain[e.Gen] = true
		if e.Base < 0 {
			pinOlder = true
		} else if e.Base != 0 {
			retain[e.Base] = true
		}
	}
	for _, e := range entries {
		if retain[e.Gen] {
			next = append(next, e)
		} else {
			drop = append(drop, e)
		}
	}
	return drop, next
}

// verifyManifestDropped re-reads MANIFEST from disk and reports whether
// it verifies intact and references none of the given entries. Callers
// must not remove segment files unless this holds.
func (s *Store) verifyManifestDropped(drop []segEntry) bool {
	buf, err := s.readFile(manifestName)
	if err != nil {
		return false
	}
	_, payload, err := openEnvelope(manMagic, buf)
	if err != nil {
		return false
	}
	var body manifestBody
	if json.Unmarshal(payload, &body) != nil {
		return false
	}
	listed := make(map[int64]bool, len(body.Generations))
	for _, e := range body.Generations {
		listed[e.Gen] = true
	}
	for _, e := range drop {
		if listed[e.Gen] {
			return false
		}
	}
	return true
}

// payloadCRC reads the payload checksum back out of a sealed envelope.
func payloadCRC(sealed []byte) uint32 {
	return uint32(sealed[24]) | uint32(sealed[25])<<8 | uint32(sealed[26])<<16 | uint32(sealed[27])<<24
}

// writeManifest durably replaces MANIFEST with the given view. The
// sequence number is monotonic even across failures: a failed write may
// still have renamed the new manifest into place (only its directory
// fsync broke), so reusing the sequence for different content would be
// ambiguous on disk.
func (s *Store) writeManifest(entries []segEntry) error {
	payload, err := json.Marshal(manifestBody{Generations: entries})
	if err != nil {
		return err
	}
	s.manSeq++
	return s.writeFileAtomic(manifestName, sealEnvelope(manMagic, s.manSeq, payload))
}

// writeFileAtomic runs the four-step commit for one file: the sealed
// bytes land in name+".tmp", are fsynced, renamed over name, and the
// directory is fsynced so the rename survives a crash. Any failure
// removes the temp file (best-effort) and reports which step broke.
func (s *Store) writeFileAtomic(name string, sealed []byte) error {
	tmp := name + tmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("create %s: %w", tmp, err)
	}
	if _, err := f.WriteAt(sealed, 0); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("fsync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("close %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, name); err != nil {
		_ = s.fs.Remove(tmp)
		return fmt.Errorf("rename %s: %w", tmp, err)
	}
	if err := s.fs.SyncRoot(); err != nil {
		// The rename happened but its durability is unknown: the caller
		// must not acknowledge. A subsequent crash legally shows either
		// state; both are complete images, so recovery stays sound.
		return fmt.Errorf("fsync dir after %s: %w", name, err)
	}
	s.bytesFsynced.Add(int64(len(sealed)))
	return nil
}

// readFile slurps one file through the FileSystem.
func (s *Store) readFile(name string) ([]byte, error) {
	size, err := s.fs.Size(name)
	if err != nil {
		return nil, err
	}
	f, err := s.fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && !(err == io.EOF && size == 0) {
		return nil, err
	}
	return buf, nil
}

// Generations lists the retained generations, ascending.
func (s *Store) Generations() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(s.entries))
	for i, e := range s.entries {
		out[i] = e.Gen
	}
	return out
}

// BaseOf returns the base generation the given segment is a delta
// against (0 for a full image, negative when a manifest-loss scan
// rebuilt the entry and the base is not known) and whether the
// generation is retained.
func (s *Store) BaseOf(gen int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Gen == gen {
			return e.Base, true
		}
	}
	return 0, false
}

// Chain describes the segments recovering the newest generation reads:
// the deltas it replays, newest first, down to the full image beneath
// them.
type Chain struct {
	Deltas     int   // delta segments above the full image
	DeltaBytes int64 // their files' sizes, summed
	// BaseBytes is the size of the full image's file; 0 when the store is
	// empty or the chain does not reach one the manifest knows (a base
	// unknown after a manifest loss, or missing).
	BaseBytes int64
}

// Chain reports the newest generation's replay chain. A checkpoint
// policy reads it to decide when the next checkpoint should be a full
// image again: core.Directory takes one once the deltas would weigh as
// much as the image under them.
func (s *Store) Chain() Chain {
	s.mu.Lock()
	defer s.mu.Unlock()
	var c Chain
	if len(s.entries) == 0 {
		return c
	}
	// Entries ascend by generation and a base is older than its delta, so
	// one pass downward meets the chain's links in order; want is the next.
	want := s.entries[len(s.entries)-1].Gen
	for i := len(s.entries) - 1; i >= 0 && s.entries[i].Gen >= want; i-- {
		e := s.entries[i]
		if e.Gen != want {
			continue
		}
		if e.Base == 0 {
			c.BaseBytes = e.Size
		}
		if e.Base <= 0 {
			break
		}
		c.Deltas++
		c.DeltaBytes += e.Size
		want = e.Base
	}
	return c
}

// Newest returns the highest retained generation, or false when the
// store is empty.
func (s *Store) Newest() (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) == 0 {
		return 0, false
	}
	return s.entries[len(s.entries)-1].Gen, true
}

// Load reads and fully verifies one generation's payload: envelope
// header checksum, magic, generation number, length, payload checksum,
// and — when the manifest recorded one — the manifest's size and CRC
// cross-check. Every verification failure wraps ErrCorrupt.
func (s *Store) Load(gen int64) ([]byte, error) {
	s.mu.Lock()
	var entry *segEntry
	for i := range s.entries {
		if s.entries[i].Gen == gen {
			entry = &s.entries[i]
			break
		}
	}
	if entry == nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("durable: generation %d not in store", gen)
	}
	e := *entry
	s.mu.Unlock()
	return s.loadEntry(e)
}

func (s *Store) loadEntry(e segEntry) ([]byte, error) {
	buf, err := s.readFile(e.File)
	if err != nil {
		return nil, fmt.Errorf("%w: gen %d unreadable: %v", ErrCorrupt, e.Gen, err)
	}
	if e.Size != 0 && int64(len(buf)) != e.Size {
		return nil, fmt.Errorf("%w: gen %d is %d bytes, manifest recorded %d", ErrCorrupt, e.Gen, len(buf), e.Size)
	}
	hgen, payload, err := openEnvelope(segMagic, buf)
	if err != nil {
		return nil, fmt.Errorf("gen %d: %w", e.Gen, err)
	}
	if int64(hgen) != e.Gen {
		return nil, fmt.Errorf("%w: file %s claims generation %d, expected %d", ErrCorrupt, e.File, hgen, e.Gen)
	}
	if e.CRC != 0 && payloadCRC(buf) != e.CRC {
		return nil, fmt.Errorf("%w: gen %d checksum differs from manifest", ErrCorrupt, e.Gen)
	}
	return payload, nil
}

// Recover walks the ladder: generations newest-first, returning the
// payload of the first one that verifies intact and pruning every
// corrupt newer segment from the store (their files are removed and
// the manifest rewritten, so the write path resumes cleanly from the
// recovered lineage). ErrEmpty means a fresh store; a non-nil
// ErrNoIntactGeneration means data existed and all of it failed
// verification.
func (s *Store) Recover() (int64, []byte, error) {
	s.mu.Lock()
	candidates := make([]segEntry, len(s.entries))
	copy(candidates, s.entries)
	s.mu.Unlock()
	if len(candidates) == 0 {
		return 0, nil, ErrEmpty
	}
	var corrupt []segEntry
	for i := len(candidates) - 1; i >= 0; i-- {
		e := candidates[i]
		payload, err := s.loadEntry(e)
		if err != nil {
			s.corruptSkips.Add(1)
			corrupt = append(corrupt, e)
			continue
		}
		if len(corrupt) > 0 {
			s.dropSegments(corrupt)
		}
		s.recoveries.Add(1)
		return e.Gen, payload, nil
	}
	return 0, nil, fmt.Errorf("%w: all %d generations failed verification", ErrNoIntactGeneration, len(candidates))
}

// Rollback drops every generation newer than gen: their files are
// removed and the manifest rewritten, so subsequent commits continue
// the lineage at gen. Recovery layers that verify more than the
// checksums (core.Recover decodes the whole image) use it to discard
// rungs the store's own ladder would have accepted.
func (s *Store) Rollback(gen int64) error {
	s.mu.Lock()
	var drop []segEntry
	for _, e := range s.entries {
		if e.Gen > gen {
			drop = append(drop, e)
		}
	}
	s.mu.Unlock()
	if len(drop) == 0 {
		return nil
	}
	s.dropSegments(drop)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.Gen > gen {
			return fmt.Errorf("durable: rollback to gen %d incomplete (gen %d still listed)", gen, e.Gen)
		}
	}
	return nil
}

// dropSegments removes the given (corrupt) segments and rewrites the
// manifest without them. Best-effort: a failure leaves the corrupt
// entries listed, and the next Recover skips them again.
func (s *Store) dropSegments(drop []segEntry) {
	dead := make(map[int64]bool, len(drop))
	for _, e := range drop {
		dead[e.Gen] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make([]segEntry, 0, len(s.entries))
	for _, e := range s.entries {
		if !dead[e.Gen] {
			next = append(next, e)
		}
	}
	if err := s.writeManifest(next); err != nil {
		return
	}
	s.entries = next
	if !s.verifyManifestDropped(drop) {
		return // stray files are safe; a manifest needing them is not
	}
	for _, e := range drop {
		if s.fs.Remove(e.File) == nil {
			s.pruned.Add(1)
		}
	}
	_ = s.fs.SyncRoot()
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Commits:        s.commits.Load(),
		CommitBytes:    s.commitBytes.Load(),
		BytesFsynced:   s.bytesFsynced.Load(),
		CorruptSkips:   s.corruptSkips.Load(),
		Recoveries:     s.recoveries.Load(),
		OrphansRemoved: s.orphansRemoved.Load(),
		Pruned:         s.pruned.Load(),
	}
}

// RegisterMetrics exposes the store's counters on reg under the given
// prefix (e.g. "dirkit_durable"): commit count and latency histogram,
// payload and fsynced byte totals, corrupt-segment skips, recoveries,
// orphan cleanups, pruned segments, the retained generation count, and
// the newest generation's replay chain (Chain): when its delta bytes
// near its base bytes, the next checkpoint is due to be a full image.
func (s *Store) RegisterMetrics(reg *obs.Registry, prefix string) {
	s.latency = reg.Histogram(prefix+"_commit_latency_us", "per-checkpoint commit wall time (microseconds)")
	reg.GaugeFunc(prefix+"_commits", "successful durable commits", s.commits.Load)
	reg.GaugeFunc(prefix+"_commit_bytes", "payload bytes durably committed", s.commitBytes.Load)
	reg.GaugeFunc(prefix+"_fsynced_bytes", "bytes written and fsynced (segments + manifests)", s.bytesFsynced.Load)
	reg.GaugeFunc(prefix+"_corrupt_skips", "corrupt segments skipped by verification", s.corruptSkips.Load)
	reg.GaugeFunc(prefix+"_recoveries", "recoveries that landed on an intact generation", s.recoveries.Load)
	reg.GaugeFunc(prefix+"_orphans_removed", "orphaned temp files removed at open", s.orphansRemoved.Load)
	reg.GaugeFunc(prefix+"_pruned", "generation segments pruned", s.pruned.Load)
	reg.GaugeFunc(prefix+"_generations", "generations currently retained", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.entries))
	})
	reg.GaugeFunc(prefix+"_chain_deltas", "delta segments the newest generation replays", func() int64 { return int64(s.Chain().Deltas) })
	reg.GaugeFunc(prefix+"_chain_bytes", "bytes of those delta segments", func() int64 { return s.Chain().DeltaBytes })
	reg.GaugeFunc(prefix+"_chain_base_bytes", "bytes of the full image beneath them", func() int64 { return s.Chain().BaseBytes })
}
