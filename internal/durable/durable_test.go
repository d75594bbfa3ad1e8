package durable

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/pager"
)

func newStore(t *testing.T, opts Options) (*Store, pager.FileSystem) {
	t.Helper()
	fs, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, fs
}

func commitString(t *testing.T, s *Store, gen int64, payload string) {
	t.Helper()
	err := s.Commit(gen, func(w io.Writer) error {
		_, err := io.WriteString(w, payload)
		return err
	})
	if err != nil {
		t.Fatalf("commit gen %d: %v", gen, err)
	}
}

func TestCommitRecoverRoundTrip(t *testing.T) {
	s, fs := newStore(t, Options{})
	commitString(t, s, 1, "generation one")
	commitString(t, s, 2, "generation two")

	gen, payload, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || string(payload) != "generation two" {
		t.Fatalf("recovered gen %d %q", gen, payload)
	}

	// A reopened store (fresh process) recovers the same state.
	back, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err = back.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || string(payload) != "generation two" {
		t.Fatalf("reopened store recovered gen %d %q", gen, payload)
	}
	if got := back.Generations(); fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("generations %v", got)
	}
}

func TestRecoverEmptyStore(t *testing.T) {
	s, _ := newStore(t, Options{})
	if _, _, err := s.Recover(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty store Recover = %v, want ErrEmpty", err)
	}
}

func TestKeepPrunesOldGenerations(t *testing.T) {
	s, fs := newStore(t, Options{Keep: 2})
	for g := int64(1); g <= 5; g++ {
		commitString(t, s, g, fmt.Sprintf("gen %d", g))
	}
	if got := s.Generations(); fmt.Sprint(got) != "[4 5]" {
		t.Fatalf("generations %v, want [4 5]", got)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	logs := 0
	for _, n := range names {
		if strings.HasSuffix(n, logSuffix) {
			logs++
		}
	}
	if logs != 2 {
		t.Fatalf("%d log files on disk (%v), want 2", logs, names)
	}
	if s.Stats().Pruned != 3 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestRecommitGenerationReplaces(t *testing.T) {
	s, _ := newStore(t, Options{})
	commitString(t, s, 3, "first lineage")
	commitString(t, s, 3, "second lineage")
	gen, payload, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 || string(payload) != "second lineage" {
		t.Fatalf("recovered gen %d %q", gen, payload)
	}
	if got := s.Generations(); fmt.Sprint(got) != "[3]" {
		t.Fatalf("generations %v", got)
	}
}

func TestLoadUnknownGeneration(t *testing.T) {
	s, _ := newStore(t, Options{})
	commitString(t, s, 1, "x")
	if _, err := s.Load(9); err == nil {
		t.Fatal("Load(9) succeeded on a store holding only gen 1")
	}
}

func TestCommitSerializeErrorLeavesStoreUntouched(t *testing.T) {
	s, _ := newStore(t, Options{})
	commitString(t, s, 1, "good")
	boom := errors.New("boom")
	err := s.Commit(2, func(w io.Writer) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	gen, payload, err := s.Recover()
	if err != nil || gen != 1 || string(payload) != "good" {
		t.Fatalf("after failed serialize: gen %d %q %v", gen, payload, err)
	}
}

// TestOpenRefusesLegacyStore: a data directory in the earlier
// segment-and-MANIFEST layout is refused, not read or overwritten.
func TestOpenRefusesLegacyStore(t *testing.T) {
	for _, name := range []string{"MANIFEST", "seg-0000000000000001.seg"} {
		fs, err := pager.DirFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(fs, Options{}); !errors.Is(err, ErrLegacyStore) {
			t.Fatalf("Open over %s = %v, want ErrLegacyStore", name, err)
		}
	}
}

// TestCommitFsyncCounts counts the durability barriers through faultfs:
// a delta in steady state costs exactly one fsync and no directory
// fsync, and a full image one fsync and at most two directory fsyncs
// (its new file's name, then the removals past Keep).
func TestCommitFsyncCounts(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.Wrap(inner, faultfs.Config{})
	s, err := Open(ffs, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	delta := func(w io.Writer) error {
		_, err := w.Write(make([]byte, 47<<10))
		return err
	}
	for gen := int64(1); gen <= 16; gen++ {
		before := ffs.Stats()
		full := gen%5 == 1
		if full {
			commitString(t, s, gen, "a full image")
		} else if err := s.CommitDelta(gen, gen-1, delta); err != nil {
			t.Fatal(err)
		}
		after := ffs.Stats()
		syncs, roots := after.Syncs-before.Syncs, after.RootSyncs-before.RootSyncs
		if full && (syncs != 1 || roots > 2) || !full && (syncs != 1 || roots != 0) {
			t.Fatalf("gen %d (full %v): %d fsyncs, %d directory fsyncs", gen, full, syncs, roots)
		}
	}
	if got := s.Generations(); fmt.Sprint(got) != "[11 12 13 14 15 16]" {
		t.Fatalf("generations %v, want the newest 2 log files' frames", got)
	}
	// A reopened store appends to the recovered log at the same cost: its
	// one directory fsync is Open's.
	if s, err = Open(ffs, Options{Keep: 2}); err != nil {
		t.Fatal(err)
	}
	for gen := int64(17); gen <= 19; gen++ {
		before := ffs.Stats()
		if err := s.CommitDelta(gen, gen-1, delta); err != nil {
			t.Fatal(err)
		}
		if after := ffs.Stats(); after.Syncs-before.Syncs != 1 || after.RootSyncs != before.RootSyncs {
			t.Fatalf("reopened gen %d: %d fsyncs, %d directory fsyncs", gen, after.Syncs-before.Syncs, after.RootSyncs-before.RootSyncs)
		}
	}
}
