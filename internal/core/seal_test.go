package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestPublishedDisksAreSealed: every path that publishes a store —
// Open, a rebuilding Update, UpdateEntries on a fork, OpenSnapshot,
// and Recover replaying a delta chain — leaves its disk sealed, so a
// stray write to a published generation fails with pager.ErrSealed
// instead of corrupting what readers and forks share. The directory
// keeps answering from it.
func TestPublishedDisksAreSealed(t *testing.T) {
	refuses := func(path string, dir *Directory) {
		t.Helper()
		if _, err := dir.Disk().Alloc(); !errors.Is(err, pager.ErrSealed) {
			t.Errorf("%s: Alloc on the published disk: err = %v, want ErrSealed", path, err)
		}
		if res, err := dir.Search("( ? sub ? objectClass=*)"); err != nil || len(res.Entries) == 0 {
			t.Errorf("%s: search of the sealed generation: %v", path, err)
		}
	}
	ds, _ := newDurableStore(t)
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	refuses("Open", dir)
	addUID(t, dir, "sealed")
	refuses("Update", dir)

	dir = peopleDirectory(t, 450, Options{DeltaCheckpoints: true})
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	if err := dir.UpdateEntries(personOp(t, dir, "sealed", "sealed")); err != nil {
		t.Fatal(err)
	}
	if err := dir.UpdateEntries(store.EntryOp{Remove: model.MustParseDN(
		"uid=sealed, ou=userProfiles, dc=research, dc=att, dc=com")}); err != nil {
		t.Fatal(err)
	}
	if dir.Disk().DirtyCount() == 0 {
		t.Fatal("UpdateEntries fell back to a rebuild: the fork path is not covered")
	}
	refuses("UpdateEntries", dir)

	var img bytes.Buffer
	if err := dir.SaveSnapshot(&img); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&img, Options{})
	if err != nil {
		t.Fatal(err)
	}
	refuses("OpenSnapshot", back)

	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}
	if base, ok := ds.BaseOf(dir.Generation()); !ok || base == 0 {
		t.Fatalf("checkpoint of generation %d is not a delta", dir.Generation())
	}
	rec, _, err := Recover(ds, Options{DeltaCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	refuses("Recover", rec)
}
