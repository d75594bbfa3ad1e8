package pager

import (
	"bytes"
	"errors"
	"testing"
)

// TestSealRefusesMutators seals a forked disk with live, freed and dirty
// pages and checks the contract: every mutator fails with ErrSealed and
// changes nothing, every reader works as before, and a fork of the
// sealed disk is an ordinary writable disk.
func TestSealRefusesMutators(t *testing.T) {
	base := NewDisk(64)
	a, _ := base.Alloc()
	b, _ := base.Alloc()
	if err := base.Write(a, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	d := base.Fork()
	if err := d.Write(b, []byte("beta")); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	var delta bytes.Buffer
	if _, err := d.WriteDeltaTo(&delta, d.Dirty()); err != nil {
		t.Fatal(err)
	}
	d.Seal()

	before, pages, dirty := d.Stats(), d.NumPages(), d.Dirty()
	for name, err := range map[string]error{
		"Write":      d.Write(b, []byte("gamma")),
		"Alloc":      func() error { _, err := d.Alloc(); return err }(),
		"Free":       d.Free(b),
		"ApplyDelta": d.ApplyDelta(bytes.NewReader(delta.Bytes())),
	} {
		if !errors.Is(err, ErrSealed) {
			t.Errorf("%s on a sealed disk: err = %v, want ErrSealed", name, err)
		}
	}
	if got := d.Stats(); got != before {
		t.Errorf("refused mutators moved the counters: %v -> %v", before, got)
	}
	if d.NumPages() != pages || len(d.Dirty()) != len(dirty) || d.DirtyCount() != len(dirty) {
		t.Errorf("refused mutators changed the device: %d pages, dirty %v -> %d pages, dirty %v",
			pages, dirty, d.NumPages(), d.Dirty())
	}

	buf := make([]byte, 64)
	if err := d.Read(b, buf); err != nil || !bytes.HasPrefix(buf, []byte("beta")) {
		t.Errorf("Read on a sealed disk: %q, %v", buf, err)
	}
	if err := d.NewMeteredReadHandle(&Meter{}).Read(b, buf); err != nil {
		t.Errorf("ReadHandle on a sealed disk: %v", err)
	}
	if d.Stats().Reads != before.Reads+2 {
		t.Errorf("reads on a sealed disk not counted: %v", d.Stats())
	}
	var img bytes.Buffer
	if _, err := d.WriteTo(&img); err != nil {
		t.Fatalf("WriteTo on a sealed disk: %v", err)
	}
	back, err := ReadDisk(&img)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Write(b, []byte("copy")); err != nil {
		t.Errorf("a disk read back from a sealed image is not writable: %v", err)
	}
	if _, err := d.WriteDeltaTo(&bytes.Buffer{}, d.Dirty()); err != nil {
		t.Errorf("WriteDeltaTo on a sealed disk: %v", err)
	}

	f := d.Fork()
	id, err := f.Alloc()
	if err != nil {
		t.Fatalf("Alloc on a fork of a sealed disk: %v", err)
	}
	if err := f.Write(id, []byte("child")); err != nil {
		t.Fatalf("Write on a fork of a sealed disk: %v", err)
	}
	if err := f.Write(b, []byte("over")); err != nil {
		t.Fatalf("Write of a shared page on a fork of a sealed disk: %v", err)
	}
	if err := f.Free(id); err != nil {
		t.Fatalf("Free on a fork of a sealed disk: %v", err)
	}
	if err := d.Read(b, buf); err != nil || !bytes.HasPrefix(buf, []byte("beta")) {
		t.Errorf("the fork's write reached the sealed parent: %q, %v", buf, err)
	}
}
