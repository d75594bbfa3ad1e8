package pager

import (
	"sync"
	"testing"
)

// TestReadHandleConcurrentExactness is the sharded-stats half of the
// ownership rule: any number of handles reading concurrently must lose
// no counts — the global Reads counter equals the exact number of page
// reads issued, and each handle's meter counts exactly its own.
func TestReadHandleConcurrentExactness(t *testing.T) {
	d := NewDisk(256)
	const nPages = 64
	ids := make([]PageID, nPages)
	for i := range ids {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	before := d.Stats()

	const (
		goroutines    = 16
		readsPerGoro  = 500
		expectedReads = goroutines * readsPerGoro
	)
	locals := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var m Meter
			h := d.NewMeteredReadHandle(&m)
			buf := make([]byte, d.PageSize())
			for i := 0; i < readsPerGoro; i++ {
				pi := (g*readsPerGoro + i) % nPages
				if err := h.Read(ids[pi], buf); err != nil {
					t.Errorf("goroutine %d read %d: %v", g, i, err)
					return
				}
				if buf[0] != byte(pi) {
					t.Errorf("goroutine %d: page %d content %d", g, pi, buf[0])
					return
				}
			}
			locals[g] = m.Stats()
		}(g)
	}
	wg.Wait()

	delta := d.Stats().Sub(before)
	if delta.Reads != expectedReads {
		t.Fatalf("global Reads delta = %d, want %d (counts lost or duplicated)", delta.Reads, expectedReads)
	}
	var localSum int64
	for g, s := range locals {
		if s.Reads != readsPerGoro {
			t.Fatalf("handle %d metered Reads = %d, want %d", g, s.Reads, readsPerGoro)
		}
		localSum += s.Reads
	}
	if localSum != delta.Reads {
		t.Fatalf("metered sum %d != global delta %d", localSum, delta.Reads)
	}
}

// TestReadHandleConcurrentWithWrites mixes concurrent handle reads with
// serialized writers: the write lock excludes readers while a page
// mutates, and every counter stays exact.
func TestReadHandleConcurrentWithWrites(t *testing.T) {
	d := NewDisk(256)
	const nPages = 16
	ids := make([]PageID, nPages)
	for i := range ids {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{1}); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	before := d.Stats()

	const (
		readers      = 8
		readsPerGoro = 300
		writes       = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := d.NewReadHandle()
			buf := make([]byte, d.PageSize())
			for i := 0; i < readsPerGoro; i++ {
				if err := h.Read(ids[(g+i)%nPages], buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if buf[0] == 0 {
					t.Errorf("read observed unwritten content")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writes; i++ {
			if err := d.Write(ids[i%nPages], []byte{byte(1 + i%7)}); err != nil {
				t.Errorf("write: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	delta := d.Stats().Sub(before)
	if delta.Reads != readers*readsPerGoro {
		t.Fatalf("Reads delta = %d, want %d", delta.Reads, readers*readsPerGoro)
	}
	if delta.Writes != writes {
		t.Fatalf("Writes delta = %d, want %d", delta.Writes, writes)
	}
}
