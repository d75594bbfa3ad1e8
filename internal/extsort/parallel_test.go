package extsort

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/plist"
)

// drainWitness flattens a sorted list into comparable (key, original
// position) pairs — position makes stability violations visible.
func drainWitness(t *testing.T, l *plist.List) []string {
	t.Helper()
	got, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(got))
	for i, rec := range got {
		out[i] = fmt.Sprintf("%s/%d", rec.Key, rec.A)
	}
	return out
}

// TestParallelSortMatchesSerial is the extsort half of the DESIGN.md §9
// determinism claim: for any worker count the output sequence —
// including the stable order of duplicate keys — is identical to the
// serial sort, across batch and fan-in shapes that force multiple runs
// and multiple merge passes.
func TestParallelSortMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	recs := randomRecords(r, 1500)
	shapes := []Config{
		{MemBytes: 512, FanIn: 2},
		{MemBytes: 1024, FanIn: 3},
		{MemBytes: 4096, FanIn: 16},
	}
	for _, shape := range shapes {
		serialCfg := shape
		serialCfg.Workers = 1
		ds := pager.NewDisk(256)
		ls, err := SortSlice(ds, recs, serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		want := drainWitness(t, ls)
		for _, w := range []int{2, 4, 8} {
			cfg := shape
			cfg.Workers = w
			dp := pager.NewDisk(256)
			lp, err := SortSlice(dp, recs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := drainWitness(t, lp)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("MemBytes=%d FanIn=%d: Workers=%d output diverges from serial",
					shape.MemBytes, shape.FanIn, w)
			}
		}
	}
}

// TestParallelSortPreservesDuplicates re-runs the duplicate-preserving
// check through the concurrent path.
func TestParallelSortPreservesDuplicates(t *testing.T) {
	d := pager.NewDisk(256)
	var recs []*plist.Record
	for i := 0; i < 30; i++ {
		recs = append(recs, &plist.Record{Key: "dup", A: int64(i)})
	}
	recs = append(recs, &plist.Record{Key: "aaa"}, &plist.Record{Key: "zzz"})
	rand.New(rand.NewSource(2)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	l, err := SortSlice(d, recs, Config{MemBytes: 256, FanIn: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plist.DrainReader(l.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 32 {
		t.Fatalf("duplicates lost: %d", len(got))
	}
}

// TestParallelSortLeavesNoTempPages: concurrent run formation and
// merging must free every intermediate page, like the serial path.
func TestParallelSortLeavesNoTempPages(t *testing.T) {
	d := pager.NewDisk(256)
	r := rand.New(rand.NewSource(9))
	recs := randomRecords(r, 400)
	l, err := SortSlice(d, recs, Config{MemBytes: 600, FanIn: 2, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != l.Pages() {
		t.Fatalf("temp pages leaked: disk has %d, result needs %d", d.NumPages(), l.Pages())
	}
}
