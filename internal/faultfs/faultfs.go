// Package faultfs is the storage twin of internal/faultnet: a
// fault-injecting pager.FileSystem wrapper that simulates the ways real
// disks betray a commit protocol — torn writes that persist only a
// prefix, short writes, fsync calls that fail after dirtying the page
// cache, silent bit-rot, outright write errors, and a filling disk
// (ENOSPC). internal/durable's crash and corruption tests drive their
// commit paths through this wrapper to prove the recovery ladder never
// serves a torn or silently corrupted generation.
//
// All injection is deterministic in Config.Seed, so a failing test
// reproduces from its seed alone.
package faultfs

import (
	"errors"
	"math/rand"
	"sync"

	"repro/internal/pager"
)

// Injected faults surface as (or wrap) these sentinels.
var (
	// ErrInjected marks a synthetic I/O failure (torn write, short
	// write, failed fsync, write error).
	ErrInjected = errors.New("faultfs: injected fault")
	// ErrNoSpace marks writes rejected after the configured byte budget
	// is spent — the simulated full disk.
	ErrNoSpace = errors.New("faultfs: no space left on device")
)

// Config sets per-operation fault probabilities (0 disables each).
// Probabilities are evaluated independently per call with a
// deterministic PRNG.
type Config struct {
	// Seed keys the PRNG (0 means 1, so the zero Config stays
	// deterministic).
	Seed int64
	// TornWrite is the probability that a WriteAt persists only a
	// random prefix of its data and then fails — the classic torn page
	// a crash mid-write leaves behind.
	TornWrite float64
	// ShortWrite is the probability that a WriteAt persists a random
	// prefix and reports the short count with ErrInjected (an
	// interrupted write the caller can see).
	ShortWrite float64
	// SyncErr is the probability that a Sync (or SyncRoot) fails. The
	// data's durability is then unknown — exactly the contract real
	// fsync failures void.
	SyncErr float64
	// BitRot is the probability that a WriteAt persists all bytes but
	// flips one bit — silent media corruption that only checksums
	// catch.
	BitRot float64
	// WriteErr is the probability that a WriteAt fails without
	// persisting anything.
	WriteErr float64
	// ENOSPCAfter, when positive, is the total number of bytes that may
	// be written through this filesystem before every further WriteAt
	// fails with ErrNoSpace.
	ENOSPCAfter int64
}

// Stats counts injected faults by kind, and the durability barriers
// asked for: every Sync and SyncRoot call, failed or not.
type Stats struct {
	TornWrites  int64
	ShortWrites int64
	SyncErrs    int64
	BitRots     int64
	WriteErrs   int64
	NoSpace     int64
	Syncs       int64
	RootSyncs   int64
}

// FS wraps an inner pager.FileSystem with fault injection. Safe for
// concurrent use.
type FS struct {
	inner pager.FileSystem
	cfg   Config

	mu      sync.Mutex
	rng     *rand.Rand
	written int64
	stats   Stats
}

// Wrap decorates inner with fault injection per cfg.
func Wrap(inner pager.FileSystem, cfg Config) *FS {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &FS{inner: inner, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats snapshots the counters.
func (fs *FS) Stats() Stats {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.stats
}

// roll draws one uniform variate under the lock.
func (fs *FS) roll() float64 {
	return fs.rng.Float64()
}

// intn draws a uniform int in [0, n) under the lock (n > 0).
func (fs *FS) intn(n int) int {
	return fs.rng.Intn(n)
}

// Create opens a fault-injecting writable file.
func (fs *FS) Create(name string) (pager.BlockFile, error) {
	f, err := fs.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

// Open opens an existing file with the same write-path faults as Create
// (reads pass through; the injected corruption happened at write time,
// as on real media).
func (fs *FS) Open(name string) (pager.BlockFile, error) {
	f, err := fs.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: fs, f: f}, nil
}

// Rename passes through.
func (fs *FS) Rename(oldname, newname string) error { return fs.inner.Rename(oldname, newname) }

// Remove passes through.
func (fs *FS) Remove(name string) error { return fs.inner.Remove(name) }

// List passes through.
func (fs *FS) List() ([]string, error) { return fs.inner.List() }

// Size passes through.
func (fs *FS) Size(name string) (int64, error) { return fs.inner.Size(name) }

// SyncRoot fails with ErrInjected at the SyncErr probability, else
// passes through.
func (fs *FS) SyncRoot() error {
	fs.mu.Lock()
	fs.stats.RootSyncs++
	if fs.cfg.SyncErr > 0 && fs.roll() < fs.cfg.SyncErr {
		fs.stats.SyncErrs++
		fs.mu.Unlock()
		return errors.Join(ErrInjected, errors.New("fsync dir failed"))
	}
	fs.mu.Unlock()
	return fs.inner.SyncRoot()
}

// file decorates one BlockFile with the write-path faults.
type file struct {
	fs *FS
	f  pager.BlockFile
}

func (w *file) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }

func (w *file) WriteAt(p []byte, off int64) (int, error) {
	fs := w.fs
	fs.mu.Lock()
	if fs.cfg.ENOSPCAfter > 0 && fs.written+int64(len(p)) > fs.cfg.ENOSPCAfter {
		fs.stats.NoSpace++
		fs.mu.Unlock()
		return 0, ErrNoSpace
	}
	switch {
	case fs.cfg.WriteErr > 0 && fs.roll() < fs.cfg.WriteErr:
		fs.stats.WriteErrs++
		fs.mu.Unlock()
		return 0, errors.Join(ErrInjected, errors.New("write failed"))
	case fs.cfg.TornWrite > 0 && len(p) > 0 && fs.roll() < fs.cfg.TornWrite:
		fs.stats.TornWrites++
		n := fs.intn(len(p))
		fs.written += int64(n)
		fs.mu.Unlock()
		_, _ = w.f.WriteAt(p[:n], off) // the torn prefix persists
		return 0, errors.Join(ErrInjected, errors.New("torn write"))
	case fs.cfg.ShortWrite > 0 && len(p) > 1 && fs.roll() < fs.cfg.ShortWrite:
		fs.stats.ShortWrites++
		n := 1 + fs.intn(len(p)-1)
		fs.written += int64(n)
		fs.mu.Unlock()
		nn, _ := w.f.WriteAt(p[:n], off)
		return nn, errors.Join(ErrInjected, errors.New("short write"))
	case fs.cfg.BitRot > 0 && len(p) > 0 && fs.roll() < fs.cfg.BitRot:
		fs.stats.BitRots++
		i, bit := fs.intn(len(p)), fs.intn(8)
		fs.written += int64(len(p))
		fs.mu.Unlock()
		rotted := make([]byte, len(p))
		copy(rotted, p)
		rotted[i] ^= 1 << bit
		return w.f.WriteAt(rotted, off) // caller sees success; media lies
	}
	fs.written += int64(len(p))
	fs.mu.Unlock()
	return w.f.WriteAt(p, off)
}

func (w *file) Sync() error {
	fs := w.fs
	fs.mu.Lock()
	fs.stats.Syncs++
	if fs.cfg.SyncErr > 0 && fs.roll() < fs.cfg.SyncErr {
		fs.stats.SyncErrs++
		fs.mu.Unlock()
		return errors.Join(ErrInjected, errors.New("fsync failed"))
	}
	fs.mu.Unlock()
	return w.f.Sync()
}

func (w *file) Truncate(size int64) error { return w.f.Truncate(size) }

func (w *file) Close() error { return w.f.Close() }
