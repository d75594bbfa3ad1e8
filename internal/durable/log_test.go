package durable

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/pager"
)

// switchFS lets a test swap the filesystem under an open store, so a
// fault is injected into one commit only.
type switchFS struct{ pager.FileSystem }

func writeString(p string) func(w io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, p)
		return err
	}
}

func deltaString(t *testing.T, s *Store, gen, base int64, payload string) {
	t.Helper()
	if err := s.CommitDelta(gen, base, writeString(payload)); err != nil {
		t.Fatalf("delta gen %d: %v", gen, err)
	}
}

// TestFailedAppendSyncIsNotBuiltOn: an append whose fsync fails is not
// acknowledged, and the next commit does not build on it — it must name
// the last acknowledged generation as its base, and takes the failed
// frame's place in the log.
func TestFailedAppendSyncIsNotBuiltOn(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &switchFS{inner}
	s, err := Open(fs, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "one")
	deltaString(t, s, 2, 1, "two")

	fs.FileSystem = faultfs.Wrap(inner, faultfs.Config{SyncErr: 1})
	if err := s.CommitDelta(3, 2, writeString("three")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("delta 3 = %v, want the injected fsync failure", err)
	}
	fs.FileSystem = inner
	if gens := s.Generations(); fmt.Sprint(gens) != "[1 2]" {
		t.Fatalf("generations = %v, want [1 2]", gens)
	}
	if err := s.CommitDelta(4, 3, writeString("four")); err == nil {
		t.Fatal("a delta on the unacknowledged gen 3 was accepted")
	}
	deltaString(t, s, 3, 2, "three again")

	back, err := Open(inner, Options{Keep: 2})
	if err != nil {
		t.Fatal(err)
	}
	for gen, want := range map[int64]string{1: "one", 2: "two", 3: "three again"} {
		if got, err := back.Load(gen); err != nil || string(got) != want {
			t.Fatalf("load gen %d after the failed append: %q, %v; want %q", gen, got, err, want)
		}
	}
	if gens := back.Generations(); fmt.Sprint(gens) != "[1 2 3]" {
		t.Fatalf("reopened generations = %v, want [1 2 3]", gens)
	}
}

// TestTornAppendThenGoodAppend: a delta torn mid-frame is cut off
// again, the next append takes its place, and a reopened store recovers
// that one with no corrupt tail to skip.
func TestTornAppendThenGoodAppend(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &switchFS{inner}
	s, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "full image")
	deltaString(t, s, 2, 1, "delta two")

	fs.FileSystem = faultfs.Wrap(inner, faultfs.Config{Seed: 3, TornWrite: 1})
	torn := fmt.Sprintf("a long delta three that tears %0500d", 3)
	if err := s.CommitDelta(3, 2, writeString(torn)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn delta 3 = %v, want the injected torn write", err)
	}
	fs.FileSystem = inner
	deltaString(t, s, 3, 2, "good delta three")

	back, err := Open(inner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err := back.Recover()
	if err != nil || gen != 3 || string(payload) != "good delta three" {
		t.Fatalf("recovered gen %d %q %v, want gen 3's good delta", gen, payload, err)
	}
	if st := back.Stats(); st.CorruptSkips != 0 {
		t.Fatalf("%d corrupt skips; the torn frame was not cut off", st.CorruptSkips)
	}
}

// TestCommitDeltaValidation: a delta must name a strictly older base,
// and that base must be the newest generation.
func TestCommitDeltaValidation(t *testing.T) {
	s, _ := newStore(t, Options{})
	commitString(t, s, 1, "one")
	payload := writeString("delta")
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
	if err := s.CommitDelta(9, 1, payload); err == nil {
		t.Fatal("CommitDelta(9, 1) accepted with gen 2 the newest")
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

// noRemoveFS fails every Remove.
type noRemoveFS struct{ pager.FileSystem }

func (noRemoveFS) Remove(string) error { return errors.New("injected: remove refused") }

// TestLeftoverImageBlocksOlderAppends: a full image whose commit failed
// and whose file could not be removed outranks every older file on the
// next Open, so no delta may be appended to an older file while it
// remains; the next full image removes it.
func TestLeftoverImageBlocksOlderAppends(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs := &switchFS{inner}
	s, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "one")
	deltaString(t, s, 2, 1, "two")

	fs.FileSystem = noRemoveFS{faultfs.Wrap(inner, faultfs.Config{SyncErr: 1})}
	if err := s.Commit(3, writeString("three")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("commit 3 = %v, want the injected fsync failure", err)
	}
	fs.FileSystem = inner
	if err := s.CommitDelta(3, 2, writeString("three")); err == nil {
		t.Fatal("a delta was appended to log 1 while the failed image's log 3 remains")
	}
	commitString(t, s, 4, "four")

	names, err := inner.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprint([]string{logName(1), logName(4)}); fmt.Sprint(names) != want {
		t.Fatalf("files %v, want %s", names, want)
	}
	back, err := Open(inner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gens := back.Generations(); fmt.Sprint(gens) != "[1 2 4]" {
		t.Fatalf("reopened generations = %v, want [1 2 4]", gens)
	}
}
