package durable

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/pager"
)

// TestCommitUnderFaultsNeverLosesAckedState soaks the commit protocol
// through the storage fault injector: torn writes, short writes, failed
// fsyncs, outright write errors. The invariant — the reason the
// protocol exists — is that after any mix of failed and successful
// commits, a clean reopen recovers a generation at least as new as the
// last acknowledged one, with byte-identical payload. Failed commits
// may or may not have reached disk; they only ever add newer intact
// states, never damage older ones.
func TestCommitUnderFaultsNeverLosesAckedState(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inner, err := pager.DirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ffs := faultfs.Wrap(inner, faultfs.Config{
				Seed:       seed,
				TornWrite:  0.12,
				ShortWrite: 0.08,
				SyncErr:    0.12,
				WriteErr:   0.08,
			})
			s, err := Open(ffs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			payloads := map[int64]string{}
			var lastAcked int64
			for gen := int64(1); gen <= 25; gen++ {
				p := fmt.Sprintf("state of generation %d", gen)
				payloads[gen] = p
				err := s.Commit(gen, func(w io.Writer) error {
					_, err := io.WriteString(w, p)
					return err
				})
				if err == nil {
					lastAcked = gen
				} else if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("gen %d: unexpected error kind: %v", gen, err)
				}
			}
			if lastAcked == 0 {
				t.Fatalf("seed %d acked nothing; fault rates too hot for the test to mean anything", seed)
			}
			// A crash-then-reboot: reopen through the clean filesystem.
			clean, err := Open(inner, Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen, payload, err := clean.Recover()
			if err != nil {
				t.Fatalf("recover after faults: %v", err)
			}
			if gen < lastAcked {
				t.Fatalf("recovered gen %d older than last acked %d", gen, lastAcked)
			}
			if string(payload) != payloads[gen] {
				t.Fatalf("gen %d recovered %q, want %q", gen, payload, payloads[gen])
			}
		})
	}
}

// TestBitRotIsNeverServed commits through a media that silently flips
// one bit per write. Whatever Recover returns afterwards, it must be a
// payload we actually committed — rot is detected and skipped, never
// passed through.
func TestBitRotIsNeverServed(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(inner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[int64]string{}
	for gen := int64(1); gen <= 3; gen++ {
		payloads[gen] = fmt.Sprintf("clean generation %d", gen)
		commitString(t, s, gen, payloads[gen])
	}
	rotten := faultfs.Wrap(inner, faultfs.Config{Seed: 5, BitRot: 1})
	rs, err := Open(rotten, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payloads[4] = "rotten generation 4"
	// The rotten commit self-reports success; the corruption is silent.
	_ = rs.Commit(4, func(w io.Writer) error {
		_, err := io.WriteString(w, payloads[4])
		return err
	})

	clean, err := Open(inner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err := clean.Recover()
	if err != nil {
		t.Fatalf("recover after bit rot: %v", err)
	}
	if string(payload) != payloads[gen] {
		t.Fatalf("served corrupted bytes for gen %d: %q", gen, payload)
	}
	if gen < 3 {
		t.Fatalf("bit rot in gen 4 must not damage gens 1..3; recovered %d", gen)
	}
}

// TestENOSPCCommitFailsCleanly fills the disk budget mid-stream and
// asserts the over-budget commit errors without damaging prior state.
func TestENOSPCCommitFailsCleanly(t *testing.T) {
	inner, err := pager.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.Wrap(inner, faultfs.Config{ENOSPCAfter: 600})
	s, err := Open(ffs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitString(t, s, 1, "fits")
	err = s.Commit(2, func(w io.Writer) error {
		_, err := w.Write(make([]byte, 4096))
		return err
	})
	if !errors.Is(err, faultfs.ErrNoSpace) {
		t.Fatalf("over-budget commit err = %v, want ErrNoSpace", err)
	}
	clean, err := Open(inner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, payload, err := clean.Recover()
	if err != nil || gen != 1 || string(payload) != "fits" {
		t.Fatalf("after ENOSPC: gen %d %q %v", gen, payload, err)
	}
}

// TestDeltaAppendsUnderFaultsNeverLoseAckedState is the soak above for
// appends: each generation is a delta on the newest one, and a full
// image every eighth generation or whenever the delta fails (as
// core.Directory.Checkpoint falls back), under the same torn, short and
// failed writes and failed fsyncs. A clean reopen must recover a
// generation at least as new as the last acknowledged one, intact.
func TestDeltaAppendsUnderFaultsNeverLoseAckedState(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inner, err := pager.DirFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ffs := faultfs.Wrap(inner, faultfs.Config{
				Seed:       seed,
				TornWrite:  0.12,
				ShortWrite: 0.08,
				SyncErr:    0.12,
				WriteErr:   0.08,
			})
			s, err := Open(ffs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			payloads := map[int64]string{}
			var lastAcked int64
			for gen := int64(1); gen <= 40; gen++ {
				payloads[gen] = fmt.Sprintf("state of generation %d", gen)
				write := writeString(payloads[gen])
				err := errors.New("full image due")
				if newest, ok := s.Newest(); ok && gen%8 != 1 {
					err = s.CommitDelta(gen, newest, write)
				}
				if err != nil {
					err = s.Commit(gen, write)
				}
				if err == nil {
					lastAcked = gen
				} else if !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("gen %d: unexpected error kind: %v", gen, err)
				}
			}
			if lastAcked == 0 {
				t.Fatalf("seed %d acked nothing", seed)
			}
			clean, err := Open(inner, Options{})
			if err != nil {
				t.Fatal(err)
			}
			gen, payload, err := clean.Recover()
			if err != nil {
				t.Fatalf("recover after faults: %v", err)
			}
			if gen < lastAcked || string(payload) != payloads[gen] {
				t.Fatalf("recovered gen %d %q; last acked %d", gen, payload, lastAcked)
			}
		})
	}
}
