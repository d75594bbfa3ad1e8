package durable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/pager"
)

// frameOf finds gen's frame in its log file under root: the file's
// path, the frame's offset there and its length.
func frameOf(t *testing.T, root string, s *Store, gen int64) (path string, off, size int64) {
	t.Helper()
	name, off, size, ok := s.Locate(gen)
	if !ok {
		t.Fatalf("generation %d not in store", gen)
	}
	return filepath.Join(root, name), off, size
}

// flipByte XORs one byte of gen's frame in place — the bit-rot /
// torn-write aftermath the recovery ladder must detect. A negative
// offset counts from the frame's end.
func flipByte(t *testing.T, root string, s *Store, gen, off int64) {
	t.Helper()
	path, start, size := frameOf(t, root, s, gen)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += size
	}
	if off < 0 || off >= size {
		t.Fatalf("offset %d out of range (%d-byte frame)", off, size)
	}
	buf[start+off] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryLadderPerRegion corrupts one byte in each region of the
// newest frame — header magic, generation field, payload, payload
// checksum, header checksum — and asserts Recover lands on the newest
// intact generation every time.
func TestRecoveryLadderPerRegion(t *testing.T) {
	cases := []struct {
		name   string
		offset int64 // byte offset in the frame (negative = from its end)
		// wantGen is the generation Recover must land on after the
		// corruption (the newest intact one).
		wantGen int64
	}{
		{"header-magic", 0, 2},
		{"header-generation", 8, 2},
		{"header-length", 16, 2},
		{"payload-checksum", 24, 2},
		{"header-checksum", 28, 2},
		{"payload-first-byte", headerSize, 2},
		{"payload-last-byte", -1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			fs, err := pager.DirFS(root)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(fs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			commitString(t, s, 1, "payload of generation 1")
			commitString(t, s, 2, "payload of generation 2")
			commitString(t, s, 3, "payload of generation 3")

			flipByte(t, root, s, 3, tc.offset)

			back, err := Open(fs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen, payload, err := back.Recover()
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if gen != tc.wantGen {
				t.Fatalf("recovered gen %d, want %d", gen, tc.wantGen)
			}
			want := map[int64]string{2: "payload of generation 2", 3: "payload of generation 3"}[tc.wantGen]
			if string(payload) != want {
				t.Fatalf("recovered %q, want %q", payload, want)
			}
			if tc.wantGen == 2 && back.Stats().CorruptSkips == 0 {
				t.Fatal("expected a corrupt-frame skip to be counted")
			}
		})
	}
}

// TestRecoveryLadderTwoRungs corrupts the two newest generations and
// asserts the ladder descends to the third, then that the corrupt
// frames were dropped so the store resumes cleanly.
func TestRecoveryLadderTwoRungs(t *testing.T) {
	root := t.TempDir()
	fs, err := pager.DirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fs, Options{Keep: 4})
	if err != nil {
		t.Fatal(err)
	}
	for g := int64(1); g <= 4; g++ {
		commitString(t, s, g, string(rune('a'+g)))
	}
	flipByte(t, root, s, 4, headerSize)
	flipByte(t, root, s, 3, -1)

	back, err := Open(fs, Options{Keep: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err := back.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 || string(payload) != string(rune('a'+2)) {
		t.Fatalf("recovered gen %d %q, want gen 2", gen, payload)
	}
	if skips := back.Stats().CorruptSkips; skips != 2 {
		t.Fatalf("corrupt skips = %d, want 2", skips)
	}
	// The corrupt rungs are gone: committing and recovering continues
	// from the recovered lineage.
	if got := back.Generations(); len(got) != 2 || got[1] != 2 {
		t.Fatalf("generations after rollback: %v, want [1 2]", got)
	}
	commitString(t, back, 3, "new lineage")
	gen, payload, err = back.Recover()
	if err != nil || gen != 3 || string(payload) != "new lineage" {
		t.Fatalf("post-rollback commit: gen %d %q %v", gen, payload, err)
	}
}

// TestAllGenerationsCorrupt asserts the ladder fails loudly — with
// ErrNoIntactGeneration, not a zero value — when nothing verifies.
func TestAllGenerationsCorrupt(t *testing.T) {
	root := t.TempDir()
	fs, err := pager.DirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "one")
	commitString(t, s, 2, "two")
	flipByte(t, root, s, 1, headerSize)
	flipByte(t, root, s, 2, headerSize)
	back, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := back.Recover(); !errors.Is(err, ErrNoIntactGeneration) {
		t.Fatalf("Recover = %v, want ErrNoIntactGeneration", err)
	}
}

// TestTruncatedSegment asserts a frame cut mid-payload (the torn tail a
// crash during its write can leave) is skipped as corrupt.
func TestTruncatedSegment(t *testing.T) {
	root := t.TempDir()
	fs, err := pager.DirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "intact")
	commitString(t, s, 2, "this payload will be truncated")
	path, off, size := frameOf(t, root, s, 2)
	if err := os.Truncate(path, off+size-5); err != nil {
		t.Fatal(err)
	}
	back, err := Open(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err := back.Recover()
	if err != nil || gen != 1 || string(payload) != "intact" {
		t.Fatalf("recovered gen %d %q %v, want gen 1", gen, payload, err)
	}
}

// TestEnvelopeErrorsWrapErrCorrupt pins the typed-error contract.
func TestEnvelopeErrorsWrapErrCorrupt(t *testing.T) {
	if _, _, err := openEnvelope([]byte("short")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: %v", err)
	}
	sealed := sealEnvelope(7, []byte("payload"))
	sealed[headerSize] ^= 1
	if _, _, err := openEnvelope(sealed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload flip: %v", err)
	}
	foreign := sealEnvelope(7, []byte("payload"))
	copy(foreign[0:8], "DRBLMAN1")
	binary.LittleEndian.PutUint32(foreign[28:32], crc32.Checksum(foreign[0:28], castagnoli))
	if _, _, err := openEnvelope(foreign); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("magic mismatch: %v", err)
	}
}
