package pager

import (
	"sync"
	"testing"
)

// TestStatsDeltaOwnership asserts the two halves of the Stats
// ownership rule (see the Stats doc comment):
//
//  1. the global counters are exact under concurrency — G readers
//     sharing one Disk lose no updates;
//  2. a windowed delta taken while others use the Disk includes their
//     I/O too, so per-query deltas need a disk of their own (an
//     Arena's scratch and meter).
func TestStatsDeltaOwnership(t *testing.T) {
	const (
		goroutines = 8
		readsEach  = 500
	)
	d := NewDisk(512)
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(id, []byte("x")); err != nil {
		t.Fatal(err)
	}

	before := d.Stats()

	// One designated "measurer" takes a window delta around its own
	// reads while the other goroutines hammer the same disk.
	var windowDelta Stats
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 512)
			<-start
			if g == 0 {
				w0 := d.Stats()
				for i := 0; i < readsEach; i++ {
					if err := d.Read(id, buf); err != nil {
						t.Error(err)
						return
					}
				}
				windowDelta = d.Stats().Sub(w0)
				return
			}
			for i := 0; i < readsEach; i++ {
				if err := d.Read(id, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()

	// Half 1: no lost updates — the global delta is exactly the sum of
	// every goroutine's reads.
	total := d.Stats().Sub(before)
	if total.Reads != goroutines*readsEach {
		t.Fatalf("global reads delta = %d, want %d (counters lost updates)", total.Reads, goroutines*readsEach)
	}
	if total.Writes != 0 || total.Allocs != 0 || total.Frees != 0 {
		t.Fatalf("unexpected non-read activity: %v", total)
	}

	// Half 2: the measurer's window saw at least its own reads, and —
	// with 7 concurrent readers interleaving — almost certainly more.
	// The rule is that the window cannot be attributed to the measurer:
	// assert the lower bound (its own I/O is always included) and that
	// the window never exceeds the global total.
	if windowDelta.Reads < readsEach {
		t.Fatalf("window delta %d lost the measurer's own reads (want >= %d)", windowDelta.Reads, readsEach)
	}
	if windowDelta.Reads > total.Reads {
		t.Fatalf("window delta %d exceeds global delta %d", windowDelta.Reads, total.Reads)
	}

	// With the disk to itself, the same window is exact — which is why
	// per-query accounting windows a private arena, never a shared disk.
	solo := d.Stats()
	buf := make([]byte, 512)
	for i := 0; i < readsEach; i++ {
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Sub(solo); got.Reads != readsEach {
		t.Fatalf("serialized window delta = %d, want exactly %d", got.Reads, readsEach)
	}
}
