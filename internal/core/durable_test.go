package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/workload"
)

func newDurableStore(t *testing.T) (*durable.Store, string) {
	t.Helper()
	root := t.TempDir()
	fs, err := pager.DirFS(root)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := durable.Open(fs, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds, root
}

// frameOf finds gen's frame in its log file under root: the file's
// path, the frame's offset there and its length.
func frameOf(t *testing.T, ds *durable.Store, root string, gen int64) (path string, off, size int64) {
	t.Helper()
	name, off, size, ok := ds.Locate(gen)
	if !ok {
		t.Fatalf("generation %d not in the store", gen)
	}
	return filepath.Join(root, name), off, size
}

// damageFrame rewrites gen's log file with damage done to the bytes of
// gen's frame.
func damageFrame(t *testing.T, ds *durable.Store, root string, gen int64, damage func(frame []byte)) {
	t.Helper()
	path, off, size := frameOf(t, ds, root, gen)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage(buf[off : off+size])
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func addUID(t *testing.T, dir *Directory, uid string) {
	t.Helper()
	err := dir.Update(func(in *model.Instance) error {
		e, err := model.NewEntryFromDN(in.Schema(),
			model.MustParseDN(fmt.Sprintf("uid=%s, ou=userProfiles, dc=research, dc=att, dc=com", uid)))
		if err != nil {
			return err
		}
		e.AddClass("inetOrgPerson")
		return in.Add(e)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRecoverContinuesLineage(t *testing.T) {
	ds, _ := newDurableStore(t)
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen, err := dir.Checkpoint(ds); err != nil || gen != 1 {
		t.Fatalf("checkpoint gen 1: %d, %v", gen, err)
	}
	addUID(t, dir, "alpha") // gen 2
	addUID(t, dir, "beta")  // gen 3
	if gen, err := dir.Checkpoint(ds); err != nil || gen != 3 {
		t.Fatalf("checkpoint gen 3: %d, %v", gen, err)
	}
	// Checkpointing an unchanged generation is a no-op.
	before := ds.Stats().Commits
	if gen, err := dir.Checkpoint(ds); err != nil || gen != 3 {
		t.Fatalf("idempotent checkpoint: %d, %v", gen, err)
	}
	if ds.Stats().Commits != before {
		t.Fatal("idempotent checkpoint still committed")
	}

	back, info, err := Recover(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Fresh || info.Gen != 3 || info.Skipped != 0 {
		t.Fatalf("info = %+v, want gen 3", info)
	}
	if back.Generation() != 3 {
		t.Fatalf("recovered directory at gen %d, want 3 (lineage continuity)", back.Generation())
	}
	res, err := back.Search("(dc=com ? sub ? uid=alpha)")
	if err != nil || len(res.Entries) != 1 {
		t.Fatalf("recovered answer: %v, %v", res, err)
	}
	// The lineage continues: the next update is gen 4, and its
	// checkpoint lands after the recovered frame.
	addUID(t, back, "gamma")
	if back.Generation() != 4 {
		t.Fatalf("post-recovery update at gen %d, want 4", back.Generation())
	}
	if gen, err := back.Checkpoint(ds); err != nil || gen != 4 {
		t.Fatalf("post-recovery checkpoint: %d, %v", gen, err)
	}
}

func TestRecoverFreshStore(t *testing.T) {
	ds, _ := newDurableStore(t)
	dir, info, err := Recover(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Fresh || dir != nil {
		t.Fatalf("empty store: info %+v, dir %v", info, dir)
	}
}

func TestRecoverRollsPastCorruptNewestGeneration(t *testing.T) {
	ds, root := newDurableStore(t)
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	addUID(t, dir, "alpha")
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	// Rot one payload byte of the newest frame (gen 2).
	damageFrame(t, ds, root, 2, func(f []byte) { f[len(f)/2] ^= 0x40 })

	back, info, err := Recover(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.Skipped != 1 {
		t.Fatalf("info = %+v, want gen 1 with 1 skip", info)
	}
	if res, err := back.Search("(dc=com ? sub ? uid=alpha)"); err != nil || len(res.Entries) != 0 {
		t.Fatalf("gen 1 must predate alpha: %v, %v", res, err)
	}
	// The corrupt rung is gone; recommitting gen 2 starts a new lineage.
	addUID(t, back, "beta")
	if gen, err := back.Checkpoint(ds); err != nil || gen != 2 {
		t.Fatalf("recommit gen 2: %d, %v", gen, err)
	}
	again, info, err := Recover(ds, Options{})
	if err != nil || info.Gen != 2 {
		t.Fatalf("second recovery: %+v, %v", info, err)
	}
	if res, _ := again.Search("(dc=com ? sub ? uid=beta)"); len(res.Entries) != 1 {
		t.Fatal("new lineage's gen 2 lost beta")
	}
}

func TestOpenSnapshotTypedErrors(t *testing.T) {
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dir.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-magic", full[:4]},
		{"bad-magic", append([]byte("NOTDIRKT"), full[8:]...)},
		{"truncated-section-header", full[:9]},
		{"truncated-section-body", full[:40]},
		{"truncated-disk-image", full[:len(full)-20]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := OpenSnapshot(bytes.NewReader(tc.data), Options{})
			if !errors.Is(err, ErrCorruptSnapshot) {
				t.Fatalf("err = %v, want ErrCorruptSnapshot", err)
			}
		})
	}
}

// BenchmarkCheckpoint measures one durable checkpoint of the paper
// instance end to end: serialize the pinned snapshot, seal the
// checksummed envelope, and run the write-temp → fsync → rename →
// fsync-dir commit (generations alternate so the Newest() no-op path
// never hides the work).
func BenchmarkCheckpoint(b *testing.B) {
	root := b.TempDir()
	fs, err := pager.DirFS(root)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := durable.Open(fs, durable.Options{Keep: 2})
	if err != nil {
		b.Fatal(err)
	}
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	other, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	if err := other.Update(func(in *model.Instance) error { return nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dir
		if i%2 == 1 {
			d = other // gen 2: forces a real commit every iteration
		}
		if _, err := d.Checkpoint(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCheckpointDuringSwapChaos runs Checkpoints, Updates, and reads
// concurrently (meaningful under -race): every checkpoint serializes
// one immutable snapshot without blocking the swap path, and the store
// must afterwards recover some prefix generation whose answers are
// self-consistent.
func TestCheckpointDuringSwapChaos(t *testing.T) {
	ds, _ := newDurableStore(t)
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	const writers = 24
	var wg sync.WaitGroup
	errs := make(chan error, writers*3)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := dir.Update(func(in *model.Instance) error {
				e, err := model.NewEntryFromDN(in.Schema(),
					model.MustParseDN(fmt.Sprintf("uid=chaos%d, ou=userProfiles, dc=research, dc=att, dc=com", i)))
				if err != nil {
					return err
				}
				e.AddClass("inetOrgPerson")
				return in.Add(e)
			})
			if err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := dir.Checkpoint(ds); err != nil {
				errs <- err
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := dir.Search("(dc=com ? sub ? objectClass=inetOrgPerson)"); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	back, info, err := Recover(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1+writers {
		t.Fatalf("final recovery at gen %d, want %d", info.Gen, 1+writers)
	}
	res, err := back.Search("(dc=com ? sub ? uid=chaos*)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != writers {
		t.Fatalf("recovered %d chaos entries, want %d", len(res.Entries), writers)
	}
}
