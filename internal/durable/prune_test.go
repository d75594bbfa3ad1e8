package durable

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"

	"repro/internal/pager"
)

// hookFS wraps a FileSystem and lets a test fail SyncRoot calls
// deterministically, keyed by the most recent successful rename — the
// point in the commit protocol the fsync is making durable.
type hookFS struct {
	pager.FileSystem
	lastRenamed string
	syncRootErr func(lastRenamed string) error
}

func (h *hookFS) Rename(oldname, newname string) error {
	err := h.FileSystem.Rename(oldname, newname)
	if err == nil {
		h.lastRenamed = newname
	}
	return err
}

func (h *hookFS) SyncRoot() error {
	if h.syncRootErr != nil {
		if err := h.syncRootErr(h.lastRenamed); err != nil {
			return err
		}
	}
	return h.FileSystem.SyncRoot()
}

// TestManifestFsyncFailureBlocksPrune pins the prune ordering: segment
// files may only be removed after the manifest that stops referencing
// them is verifiably durable. The directory fsync following the
// manifest rename fails deterministically, so the commit must error
// WITHOUT acknowledging — and, critically, without removing any
// segment file, because a crash could still surface the old manifest
// that references the generation prune would have deleted.
func TestManifestFsyncFailureBlocksPrune(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &hookFS{FileSystem: inner}
	s, err := Open(fs, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "one")
	commitString(t, s, 2, "two")

	fs.syncRootErr = func(last string) error {
		if last == manifestName {
			return errors.New("injected: dir fsync after manifest rename")
		}
		return nil
	}
	err = s.Commit(3, func(w io.Writer) error {
		_, err := io.WriteString(w, "three")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("commit 3 = %v, want injected fsync failure", err)
	}
	fs.syncRootErr = nil

	// Nothing was pruned: every previously acknowledged segment — and
	// the unacknowledged gen 3 image — is still on disk.
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for gen := int64(1); gen <= 3; gen++ {
		if !have[segName(gen)] {
			t.Fatalf("segment %d removed during failed commit; files: %v", gen, names)
		}
	}
	// The in-memory view still acknowledges only gens 1..2.
	if gens := s.Generations(); fmt.Sprint(gens) != "[1 2]" {
		t.Fatalf("generations after failed commit = %v, want [1 2]", gens)
	}

	// A store reopened from this state recovers: whichever manifest the
	// "crash" exposed, its referenced segments all exist.
	s2, err := Open(inner, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if gen < 2 {
		t.Fatalf("recovered gen %d, want at least the acknowledged gen 2", gen)
	}
	if got := string(payload); got != "two" && got != "three" {
		t.Fatalf("recovered payload %q", got)
	}
}

// TestSegmentFsyncFailureKeepsManifest: the earlier fsync (of the
// segment temp file) failing must leave the manifest — and thus every
// acknowledged generation — untouched.
func TestSegmentFsyncFailureKeepsManifest(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &hookFS{FileSystem: inner}
	s, err := Open(fs, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "one")
	commitString(t, s, 2, "two")

	// The segment's rename lands, but the fsync making it durable
	// fails: commit must not proceed to the manifest.
	fs.syncRootErr = func(last string) error {
		if strings.HasSuffix(last, segSuffix) {
			return errors.New("injected: dir fsync after segment rename")
		}
		return nil
	}
	err = s.Commit(3, func(w io.Writer) error {
		_, err := io.WriteString(w, "three")
		return err
	})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("commit 3 = %v, want injected fsync failure", err)
	}
	fs.syncRootErr = nil
	if gens := s.Generations(); fmt.Sprint(gens) != "[1 2]" {
		t.Fatalf("generations = %v, want [1 2]", gens)
	}
	s2, err := Open(inner, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The manifest still lists 1 and 2; both must load.
	for gen := int64(1); gen <= 2; gen++ {
		if _, err := s2.Load(gen); err != nil {
			t.Fatalf("load gen %d after failed commit: %v", gen, err)
		}
	}
}

func gensOf(entries []segEntry) string {
	ids := make([]int64, len(entries))
	for i, e := range entries {
		ids[i] = e.Gen
	}
	return fmt.Sprint(ids)
}

// TestPlanPruneRetainsDeltaBases: the retention window is the newest
// keep generations plus the transitive base closure of every retained
// delta — a base outside the window survives as long as a retained
// delta needs it to replay.
func TestPlanPruneRetainsDeltaBases(t *testing.T) {
	seg := func(gen, base int64) segEntry {
		return segEntry{Gen: gen, File: segName(gen), Base: base}
	}
	cases := []struct {
		name    string
		entries []segEntry
		keep    int
		drop    string
		next    string
	}{
		{
			name:    "full-images-age-out",
			entries: []segEntry{seg(1, 0), seg(2, 0), seg(3, 0)},
			keep:    2,
			drop:    "[1]",
			next:    "[2 3]",
		},
		{
			name:    "chain-pins-transitive-bases",
			entries: []segEntry{seg(1, 0), seg(2, 1), seg(3, 2), seg(4, 3)},
			keep:    2,
			drop:    "[]",
			next:    "[1 2 3 4]",
		},
		{
			name:    "new-full-unpins-old-chain",
			entries: []segEntry{seg(1, 0), seg(2, 1), seg(3, 2), seg(4, 0), seg(5, 4), seg(6, 5)},
			keep:    3,
			drop:    "[1 2 3]",
			next:    "[4 5 6]",
		},
		{
			name:    "window-straddles-chain-boundary",
			entries: []segEntry{seg(1, 0), seg(2, 1), seg(3, 0), seg(4, 3)},
			keep:    2,
			drop:    "[1 2]",
			next:    "[3 4]",
		},
		{
			name:    "unknown-base-pins-everything-older",
			entries: []segEntry{seg(1, 0), seg(2, 0), seg(3, baseUnknown), seg(4, 0), seg(5, 0)},
			keep:    3,
			drop:    "[]",
			next:    "[1 2 3 4 5]",
		},
		{
			name:    "unknown-base-out-of-window-pins-nothing",
			entries: []segEntry{seg(1, 0), seg(2, baseUnknown), seg(3, 0), seg(4, 0), seg(5, 4)},
			keep:    3,
			drop:    "[1 2]",
			next:    "[3 4 5]",
		},
		{
			name:    "under-window-keeps-all",
			entries: []segEntry{seg(1, 0), seg(2, 1)},
			keep:    3,
			drop:    "[]",
			next:    "[1 2]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			drop, next := planPrune(tc.entries, tc.keep)
			if gensOf(drop) != tc.drop || gensOf(next) != tc.next {
				t.Fatalf("planPrune = drop %s next %s, want drop %s next %s",
					gensOf(drop), gensOf(next), tc.drop, tc.next)
			}
		})
	}
}

// TestCommitDeltaValidation: a delta must name a strictly older base
// the store still retains.
func TestCommitDeltaValidation(t *testing.T) {
	s, _ := newStore(t, Options{})
	commitString(t, s, 1, "one")
	payload := func(w io.Writer) error {
		_, err := io.WriteString(w, "delta")
		return err
	}
	for _, tc := range []struct{ gen, base int64 }{
		{2, 0},  // zero base is a full image, not a delta
		{2, -1}, // negative base
		{2, 2},  // base not older than gen
		{2, 5},  // base newer than gen
		{3, 2},  // base not in the store
	} {
		if err := s.CommitDelta(tc.gen, tc.base, payload); err == nil {
			t.Fatalf("CommitDelta(%d, %d) accepted", tc.gen, tc.base)
		}
	}
	if err := s.CommitDelta(2, 1, payload); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	if base, ok := s.BaseOf(2); !ok || base != 1 {
		t.Fatalf("BaseOf(2) = %d, %v", base, ok)
	}
}

// TestChain tracks the newest generation's replay chain: how many
// deltas, their bytes, and the bytes of the full image beneath them.
func TestChain(t *testing.T) {
	s, _ := newStore(t, Options{Keep: 8})
	if c := s.Chain(); c != (Chain{}) {
		t.Fatalf("empty store chain %+v", c)
	}
	deltaPayload := func(w io.Writer) error {
		_, err := io.WriteString(w, "x")
		return err
	}
	commitString(t, s, 1, "full")
	full := Chain{BaseBytes: headerSize + 4}
	if c := s.Chain(); c != full {
		t.Fatalf("after full image chain %+v, want %+v", c, full)
	}
	for i := int64(2); i <= 4; i++ {
		if err := s.CommitDelta(i, i-1, deltaPayload); err != nil {
			t.Fatal(err)
		}
		want := Chain{Deltas: int(i - 1), DeltaBytes: (i - 1) * (headerSize + 1), BaseBytes: full.BaseBytes}
		if c := s.Chain(); c != want {
			t.Fatalf("after delta %d chain %+v, want %+v", i, c, want)
		}
	}
	commitString(t, s, 5, "full again")
	if c := s.Chain(); c != (Chain{BaseBytes: headerSize + 10}) {
		t.Fatalf("after new full image chain %+v", c)
	}
}

// TestScanRebuildKeepsDeltaBases: a manifest rebuilt from the segment
// files does not know which segment is a delta against which, so until
// the rebuilt entries leave the keep window no commit may remove a
// segment older than them — the full image under two retained deltas
// here. The doubt is in the rewritten manifest too: it holds across a
// second reopen.
func TestScanRebuildKeepsDeltaBases(t *testing.T) {
	s, fs := newStore(t, Options{Keep: 3})
	deltaPayload := func(w io.Writer) error {
		_, err := io.WriteString(w, "delta")
		return err
	}
	commitString(t, s, 1, "full")
	for gen := int64(2); gen <= 3; gen++ {
		if err := s.CommitDelta(gen, gen-1, deltaPayload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Remove(manifestName); err != nil {
		t.Fatal(err)
	}
	reopen := func() *Store {
		t.Helper()
		s, err := Open(fs, Options{Keep: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s = reopen()
	if c := s.Chain(); c != (Chain{}) {
		t.Fatalf("chain over scan-built entries = %+v, want none known", c)
	}
	onDisk := func() string {
		t.Helper()
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		var segs []string
		for _, n := range names {
			if strings.HasSuffix(n, segSuffix) {
				segs = append(segs, n)
			}
		}
		sort.Strings(segs)
		return fmt.Sprint(segs)
	}
	segs := func(gens ...int64) string {
		names := make([]string, len(gens))
		for i, g := range gens {
			names[i] = segName(g)
		}
		return fmt.Sprint(names)
	}
	commitString(t, s, 4, "full again")
	if got, want := onDisk(), segs(1, 2, 3, 4); got != want {
		t.Fatalf("after commit 4: %s on disk, want %s (gens 2 and 3 replay through 1)", got, want)
	}
	s = reopen() // from the manifest commit 4 wrote
	commitString(t, s, 5, "five")
	if got, want := onDisk(), segs(1, 2, 3, 4, 5); got != want {
		t.Fatalf("after commit 5: %s on disk, want %s (gen 3 is still retained)", got, want)
	}
	commitString(t, s, 6, "six")
	if got, want := onDisk(), segs(4, 5, 6); got != want {
		t.Fatalf("after commit 6: %s on disk, want %s", got, want)
	}
}
