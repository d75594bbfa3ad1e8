package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestSnapshotRoundTrip(t *testing.T) {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 60, Seed: 131})
	dir, err := Open(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"(dc=com ? sub ? objectClass=TOPSSubscriber)",
		"(c (dc=com ? sub ? objectClass=TOPSSubscriber) (dc=com ? sub ? objectClass=QHP) count($2) >= 2)",
		"(dc=com ? sub ? surName=*adi*)", // exercises the rebuilt suffix index
		"(dc=com ? sub ? priority<=1)",   // exercises the rebuilt catalog
	}
	want := map[string][]string{}
	for _, q := range queries {
		res, err := dir.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.DNs()
	}

	var buf bytes.Buffer
	if err := dir.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	back, err := OpenSnapshot(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if back.Count() != dir.Count() {
		t.Fatalf("count %d, want %d", back.Count(), dir.Count())
	}
	for _, q := range queries {
		res, err := back.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(res.DNs()) != fmt.Sprint(want[q]) {
			t.Errorf("%s: snapshot answers differ\n got %v\nwant %v", q, res.DNs(), want[q])
		}
	}

	// Updates still work after a restore (instance reconstructed).
	err = back.Update(func(in *model.Instance) error {
		e, err := model.NewEntryFromDN(in.Schema(),
			model.MustParseDN("uid=restored, ou=userProfiles, dc=research, dc=att, dc=com"))
		if err != nil {
			return err
		}
		e.AddClass("inetOrgPerson")
		return in.Add(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Search("(dc=com ? sub ? uid=restored)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatal("post-restore update invisible")
	}
}

func TestSnapshotOpenSkipsBuildIO(t *testing.T) {
	in := workload.GenTOPS(workload.TOPSConfig{Subscribers: 120, Seed: 132})
	dir, err := Open(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dir.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reopen rebuilds only the in-memory indexes: one master scan plus
	// the instance reload, far less than the Build's index insertions.
	buildWrites := dir.Disk().Stats().Writes
	reopenWrites := back.Disk().Stats().Writes
	if reopenWrites*4 > buildWrites {
		t.Errorf("reopen wrote %d pages vs build's %d; snapshot not reusing the image", reopenWrites, buildWrites)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	if _, err := OpenSnapshot(bytes.NewReader([]byte("not a snapshot at all")), Options{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := OpenSnapshot(bytes.NewReader(nil), Options{}); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestSnapshotUnindexedDirectory(t *testing.T) {
	dir := smallDirectory(t, Options{NoAttrIndex: true})
	var buf bytes.Buffer
	if err := dir.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&buf, Options{NoAttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Search("(dc=com ? sub ? surName=jagadish)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("unindexed snapshot: %v", res.DNs())
	}
}

// TestSnapshotCorruptIndexPage: a snapshot whose sections are intact but
// whose DN-index root page is malformed (a key length running past the
// page) used to panic inside the B-tree decoder while the store
// reopened. It must come back as ErrCorruptSnapshot, with the tree's
// own error still matchable; so must a manifest that locates an overlay
// in the removed tree's format.
func TestSnapshotCorruptIndexPage(t *testing.T) {
	dir, err := Open(workload.PaperInstance(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dir.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	parts, err := decodeSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var m store.Manifest
	if err := json.Unmarshal(parts.manifest, &m); err != nil {
		t.Fatal(err)
	}

	legacy := *parts
	m.LegacyOverRoot = m.DNRoot
	if legacy.manifest, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	_, err = assembleSnapshot(&legacy, Options{}, 1)
	if !errors.Is(err, ErrCorruptSnapshot) || !errors.Is(err, store.ErrLegacyOverlay) {
		t.Fatalf("legacy overlay manifest: %v, want ErrCorruptSnapshot wrapping ErrLegacyOverlay", err)
	}

	page := make([]byte, parts.disk.PageSize())
	page[0], page[1] = 1, 5       // a leaf of five keys...
	page[7], page[8] = 0xff, 0x7f // ...whose first key claims 16383 bytes
	if err := parts.disk.Write(m.DNRoot, page); err != nil {
		t.Fatal(err)
	}
	_, err = assembleSnapshot(parts, Options{}, 1)
	if !errors.Is(err, ErrCorruptSnapshot) || !errors.Is(err, btree.ErrCorrupt) {
		t.Fatalf("malformed DN root page: %v, want ErrCorruptSnapshot wrapping btree.ErrCorrupt", err)
	}
}
