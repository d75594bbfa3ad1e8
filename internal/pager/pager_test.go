package pager

import (
	"bytes"
	"errors"
	"testing"
)

func TestDiskAllocReadWrite(t *testing.T) {
	d := NewDisk(128)
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id == 0 {
		t.Fatal("page id 0 must never be allocated")
	}
	data := []byte("hello, directory")
	if err := d.Write(id, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:len(data)]) != string(data) {
		t.Fatalf("read back %q", buf[:len(data)])
	}
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDiskErrors(t *testing.T) {
	d := NewDisk(64)
	buf := make([]byte, 64)
	if err := d.Read(0, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("read page 0: %v", err)
	}
	if err := d.Read(99, buf); !errors.Is(err, ErrBadPage) {
		t.Errorf("read unallocated: %v", err)
	}
	id, _ := d.Alloc()
	if err := d.Write(id, make([]byte, 65)); !errors.Is(err, ErrPageSize) {
		t.Errorf("oversized write: %v", err)
	}
	if err := d.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(PageID(50)); !errors.Is(err, ErrBadPage) {
		t.Errorf("free bad page: %v", err)
	}
}

func TestDiskFreeReuse(t *testing.T) {
	d := NewDisk(64)
	a, _ := d.Alloc()
	if err := d.Write(a, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(a); err != nil {
		t.Fatal(err)
	}
	b, _ := d.Alloc()
	if a != b {
		t.Fatalf("freed page not reused: %d vs %d", a, b)
	}
	buf := make([]byte, 64)
	if err := d.Read(b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0 {
		t.Fatal("reused page must read as zeroes")
	}
	if d.NumPages() != 1 {
		t.Fatalf("NumPages = %d", d.NumPages())
	}
}

func TestDiskWriteClearsStale(t *testing.T) {
	d := NewDisk(64)
	id, _ := d.Alloc()
	if err := d.Write(id, []byte("aaaaaaaa")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("b")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if err := d.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 'b' || buf[1] != 0 {
		t.Fatalf("stale bytes survived rewrite: %q", buf[:8])
	}
}

func TestDiskFaultInjection(t *testing.T) {
	d := NewDisk(64)
	id, _ := d.Alloc()
	boom := errors.New("boom")
	d.SetFault(func(op string, _ PageID) error {
		if op == "write" {
			return boom
		}
		return nil
	})
	if err := d.Write(id, []byte("x")); !errors.Is(err, boom) {
		t.Fatalf("fault not injected: %v", err)
	}
	d.SetFault(nil)
	if err := d.Write(id, []byte("x")); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}

	// A view is a read: it calls the hook, and an id off the device is
	// ErrBadPage before the hook is asked.
	var viewed []PageID
	d.SetFault(func(op string, p PageID) error {
		if op == "read" {
			viewed = append(viewed, p)
			return boom
		}
		return nil
	})
	if _, err := d.View(id); !errors.Is(err, boom) || len(viewed) != 1 || viewed[0] != id {
		t.Fatalf("view of page %d: %v, hook saw %v", id, err, viewed)
	}
	d.SetFault(nil)
	if v, err := d.View(id); err != nil || v[0] != 'x' || d.Stats().Reads != 0 {
		t.Fatalf("view after the fault cleared: %q, %v, %v", v[:1], err, d.Stats())
	}
	for _, bad := range []PageID{0, id + 1} {
		if _, err := d.View(bad); !errors.Is(err, ErrBadPage) {
			t.Errorf("view of page %d: %v, want ErrBadPage", bad, err)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	d := NewDisk(64)
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, _ := d.Alloc()
		if err := d.Write(id, []byte{byte(i + 1), byte(i + 2)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A freed page and a never-written page must survive the round trip.
	if err := d.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	unwritten, _ := d.Alloc() // reuses the freed slot, stays zeroed
	_ = unwritten

	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.PageSize() != 64 || back.NumPages() != d.NumPages() {
		t.Fatalf("geometry lost: %d pages, size %d", back.NumPages(), back.PageSize())
	}
	pbuf := make([]byte, 64)
	for i, id := range ids {
		if i == 2 {
			continue
		}
		if err := back.Read(id, pbuf); err != nil {
			t.Fatal(err)
		}
		if pbuf[0] != byte(i+1) || pbuf[1] != byte(i+2) {
			t.Fatalf("page %d content lost", id)
		}
	}
	// Allocation continues correctly after restore.
	if _, err := back.Alloc(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDiskRejectsGarbage(t *testing.T) {
	if _, err := ReadDisk(bytes.NewReader([]byte("bogus"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadDisk(bytes.NewReader([]byte("DIRKITD1trunc"))); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, Writes: 3, Allocs: 2, Frees: 1}
	b := Stats{Reads: 1, Writes: 1, Allocs: 1, Frees: 1}
	if got := a.Sub(b); got.Reads != 4 || got.Writes != 2 {
		t.Fatalf("Sub = %+v", got)
	}
	if got := a.Add(b); got.Reads != 6 || got.IO() != 10 {
		t.Fatalf("Add = %+v IO=%d", got, got.IO())
	}
}
