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

// TestSnapshotOpenSkipsBuildIO: opening a snapshot reuses the image —
// nothing is written to the restored disk — and reads the live entries
// in one pass: every master page and the overlay once, plus the DN-tree
// descent that locates the first record. (A second pass, or an
// evaluation materializing the directory as a result list on the store
// disk, would show up in these counters.)
func TestSnapshotOpenSkipsBuildIO(t *testing.T) {
	for _, opts := range []Options{{}, {NoAttrIndex: true}} {
		dir, err := Open(workload.GenTOPS(workload.TOPSConfig{Subscribers: 120, Seed: 132}), opts)
		if err != nil {
			t.Fatal(err)
		}
		// Three overlay keys: one leaf page.
		if err := dir.UpdateEntries(personOp(t, dir, "u9000", "a"), personOp(t, dir, "u9001", "b"), removeOp(t, "u9000")); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dir.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := OpenSnapshot(&buf, opts)
		if err != nil {
			t.Fatal(err)
		}
		const overlayPages, dnDescent = 1, 4
		io := back.Disk().Stats()
		if budget := int64(back.Engine().Store().MasterPages() + overlayPages + dnDescent); io.Reads > budget || io.Writes != 0 {
			t.Errorf("NoAttrIndex=%v: open performed %v; want at most %d reads (one scan) and no writes",
				opts.NoAttrIndex, io, budget)
		}
		if back.Count() != dir.Count() {
			t.Errorf("NoAttrIndex=%v: count %d, want %d", opts.NoAttrIndex, back.Count(), dir.Count())
		}
	}
}

// TestSnapshotRecoveryChecks: what store.Reopen's scan refuses — here a
// manifest count off by one and two master records swapped out of key
// order — surfaces as ErrCorruptSnapshot, for an indexed directory and
// for an unindexed one, whose only open-time scan this is.
func TestSnapshotRecoveryChecks(t *testing.T) {
	for _, opts := range []Options{{}, {NoAttrIndex: true}} {
		dir := peopleDirectory(t, 20, opts)
		var buf bytes.Buffer
		if err := dir.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		decode := func() (*snapshotParts, store.Manifest) {
			parts, err := decodeSnapshot(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var m store.Manifest
			if err := json.Unmarshal(parts.manifest, &m); err != nil {
				t.Fatal(err)
			}
			return parts, m
		}

		parts, m := decode()
		if _, err := assembleSnapshot(parts, opts, 1); err != nil {
			t.Fatalf("NoAttrIndex=%v: undamaged snapshot: %v", opts.NoAttrIndex, err)
		}
		m.Count++
		parts.manifest, _ = json.Marshal(m)
		if _, err := assembleSnapshot(parts, opts, 1); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("NoAttrIndex=%v: count off by one: %v, want ErrCorruptSnapshot", opts.NoAttrIndex, err)
		}

		// The master list's first page starts with dc=com and dc=att,
		// dc=com, each behind a one-byte length: rotate the two.
		parts, m = decode()
		page := make([]byte, parts.disk.PageSize())
		if err := parts.disk.Read(m.MasterPages[0], page); err != nil {
			t.Fatal(err)
		}
		a, b := 1+int(page[0]), 1+int(page[1+int(page[0])])
		copy(page, append(append([]byte(nil), page[a:a+b]...), page[:a]...))
		if err := parts.disk.Write(m.MasterPages[0], page); err != nil {
			t.Fatal(err)
		}
		if _, err := assembleSnapshot(parts, opts, 1); !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("NoAttrIndex=%v: swapped records: %v, want ErrCorruptSnapshot", opts.NoAttrIndex, err)
		}
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
