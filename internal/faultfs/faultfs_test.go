package faultfs

import (
	"errors"
	"io"
	"testing"

	"repro/internal/pager"
)

func newFS(t *testing.T, cfg Config) *FS {
	t.Helper()
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Wrap(inner, cfg)
}

func TestPassThroughWhenQuiet(t *testing.T) {
	fs := newFS(t, Config{})
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("abc"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if s := fs.Stats(); s != (Stats{Syncs: 1}) {
		t.Fatalf("quiet config injected faults: %+v", s)
	}
}

func TestTornWritePersistsPrefixOnly(t *testing.T) {
	fs := newFS(t, Config{Seed: 7, TornWrite: 1})
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789abcdef")
	_, werr := f.WriteAt(data, 0)
	if !errors.Is(werr, ErrInjected) {
		t.Fatalf("torn write err = %v, want ErrInjected", werr)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	n, err := fs.Size("x")
	if err != nil {
		t.Fatal(err)
	}
	if n >= int64(len(data)) {
		t.Fatalf("torn write persisted %d bytes, want < %d", n, len(data))
	}
	if fs.Stats().TornWrites != 1 {
		t.Fatalf("stats: %+v", fs.Stats())
	}
}

func TestBitRotFlipsExactlyOneBit(t *testing.T) {
	fs := newFS(t, Config{Seed: 3, BitRot: 1})
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("checksums catch this")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatalf("bit rot must look like success: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("x")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	back := make([]byte, len(data))
	if _, err := r.ReadAt(back, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	diffBits := 0
	for i := range data {
		b := data[i] ^ back[i]
		for ; b != 0; b &= b - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("bit rot flipped %d bits, want exactly 1", diffBits)
	}
}

func TestENOSPCBudget(t *testing.T) {
	fs := newFS(t, Config{ENOSPCAfter: 10})
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 8), 8); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("over-budget write err = %v, want ErrNoSpace", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().NoSpace != 1 {
		t.Fatalf("stats: %+v", fs.Stats())
	}
}

func TestSyncErr(t *testing.T) {
	fs := newFS(t, Config{Seed: 11, SyncErr: 1})
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Sync err = %v, want ErrInjected", err)
	}
	if err := fs.SyncRoot(); !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncRoot err = %v, want ErrInjected", err)
	}
	_ = f.Close()
}

func TestDeterministicInSeed(t *testing.T) {
	run := func() Stats {
		fs := newFS(t, Config{Seed: 42, TornWrite: 0.3, ShortWrite: 0.3, WriteErr: 0.2})
		f, err := fs.Create("x")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			_, _ = f.WriteAt([]byte("payload payload"), int64(i*16))
		}
		_ = f.Close()
		return fs.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different faults: %+v vs %+v", a, b)
	}
}
