package extsort

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
)

func randomRecords(r *rand.Rand, n int) []*plist.Record {
	recs := make([]*plist.Record, n)
	for i := range recs {
		dn := model.MustParseDN(fmt.Sprintf("uid=u%06d, dc=d%d, dc=com", r.Intn(n*4), r.Intn(8)))
		e := model.NewEntry(dn)
		e.AddClass("x")
		recs[i] = plist.FromEntry(e)
		recs[i].A = int64(i) // original position, to check stability
	}
	return recs
}

func TestSortSmall(t *testing.T) {
	d := pager.NewDisk(256)
	r := rand.New(rand.NewSource(1))
	recs := randomRecords(r, 500)
	l, err := SortSlice(d, recs, Config{MemBytes: 1024, FanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("count = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Key > got[i].Key {
			t.Fatalf("out of order at %d", i)
		}
	}
	// Same multiset of keys.
	want := make([]string, len(recs))
	for i, rec := range recs {
		want[i] = rec.Key
	}
	sort.Strings(want)
	for i := range got {
		if got[i].Key != want[i] {
			t.Fatalf("key multiset differs at %d: %q vs %q", i, got[i].Key, want[i])
		}
	}
}

func TestSortPreservesDuplicates(t *testing.T) {
	// The LP list of ComputeERAggDV can contain the same embedded DN many
	// times; all copies must survive.
	d := pager.NewDisk(256)
	var recs []*plist.Record
	for i := 0; i < 30; i++ {
		recs = append(recs, &plist.Record{Key: "dup", A: int64(i)})
	}
	recs = append(recs, &plist.Record{Key: "aaa"}, &plist.Record{Key: "zzz"})
	rand.New(rand.NewSource(2)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	l, err := SortSlice(d, recs, Config{MemBytes: 256, FanIn: 2})
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
	nd := 0
	for _, rec := range got {
		if rec.Key == "dup" {
			nd++
		}
	}
	if nd != 30 {
		t.Fatalf("dup count = %d", nd)
	}
}

func TestSortEmpty(t *testing.T) {
	d := pager.NewDisk(256)
	l, err := SortSlice(d, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 {
		t.Fatalf("count = %d", l.Count())
	}
}

func TestSortAlreadySorted(t *testing.T) {
	d := pager.NewDisk(256)
	var recs []*plist.Record
	for i := 0; i < 200; i++ {
		recs = append(recs, &plist.Record{Key: fmt.Sprintf("k%06d", i)})
	}
	l, err := SortSlice(d, recs, Config{MemBytes: 512, FanIn: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := plist.DrainReader(l.Reader())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Key != recs[i].Key {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSortIONLogN(t *testing.T) {
	// I/O per input page must grow like the number of merge passes,
	// i.e. log_FanIn(runs) — not linearly with N.
	perPage := func(n int) float64 {
		d := pager.NewDisk(512)
		r := rand.New(rand.NewSource(int64(n)))
		recs := randomRecords(r, n)
		in, err := plist.Build(d, nil)
		_ = in
		if err != nil {
			t.Fatal(err)
		}
		d.ResetStats()
		l, err := SortSlice(d, recs, Config{MemBytes: 2 * 512, FanIn: 2})
		if err != nil {
			t.Fatal(err)
		}
		return float64(d.Stats().IO()) / float64(l.Pages())
	}
	small := perPage(200)
	big := perPage(3200) // 16x input, FanIn 2 => ~4 extra passes
	if big < small {
		t.Fatalf("I/O per page should grow with N for fixed memory: %f vs %f", small, big)
	}
	// But only logarithmically: 16x data must cost far less than 16x per page.
	if big > small*math.Log2(16)*2 {
		t.Fatalf("I/O per page grew superlogarithmically: %f vs %f", small, big)
	}
}

func TestSortLeavesNoTempPages(t *testing.T) {
	d := pager.NewDisk(256)
	r := rand.New(rand.NewSource(9))
	recs := randomRecords(r, 400)
	l, err := SortSlice(d, recs, Config{MemBytes: 600, FanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != l.Pages() {
		t.Fatalf("temp pages leaked: disk has %d, result needs %d", d.NumPages(), l.Pages())
	}
}

// TestSortFromReaderPoisoned sorts what a list Reader produces — records
// that are the reader's until its next call — with plist.PoisonReads on:
// run formation must hold copies, and the run boundaries (sized from the
// encoded pair count) and output must be those of the same records
// sorted from memory.
func TestSortFromReaderPoisoned(t *testing.T) {
	d := pager.NewDisk(256)
	recs := randomRecords(rand.New(rand.NewSource(7)), 600)
	in := plist.NewWriter(d).Unordered()
	for _, r := range recs {
		if err := in.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := in.Close()
	if err != nil {
		t.Fatal(err)
	}
	want, err := SortSlice(d, recs, Config{MemBytes: 2048, FanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantRecs, err := plist.Drain(want)
	if err != nil {
		t.Fatal(err)
	}
	plist.PoisonReads(true)
	defer plist.PoisonReads(false)
	l, err := Sort(d, raw.Reader(), Config{MemBytes: 2048, FanIn: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != want.Size() || l.Pages() != want.Pages() {
		t.Fatalf("sorted list of %d bytes on %d pages, from memory %d on %d", l.Size(), l.Pages(), want.Size(), want.Pages())
	}
	got, err := plist.Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantRecs {
		if got[i].Key != wantRecs[i].Key || got[i].A != wantRecs[i].A || !got[i].Entry.Equal(wantRecs[i].Entry) {
			t.Fatalf("record %d = %q/%d, want %q/%d", i, got[i].Key, got[i].A, wantRecs[i].Key, wantRecs[i].A)
		}
	}
}

// TestSortStopsAtFirstWriteError fails one page write during run
// formation and checks that Sort returns that error without touching
// the disk again: no further page is allocated or written, and the
// runs already written are freed, so at most the pages of the run being
// written stay allocated.
func TestSortStopsAtFirstWriteError(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(11)), 5000)
	cfg := Config{MemBytes: 4096}
	runs, err := formRuns(pager.NewDisk(512), plist.NewSliceReader(recs), cfg.withDefaults(pager.NewDisk(512)))
	if err != nil {
		t.Fatal(err)
	}
	maxRun := 0
	for _, r := range runs {
		maxRun = max(maxRun, r.Pages())
	}
	boom := errors.New("boom")
	for _, failAt := range []int{1, 40} {
		d := pager.NewDisk(512)
		writes, after := 0, 0
		d.SetFault(func(op string, _ pager.PageID) error {
			if writes >= failAt {
				after++
				return nil
			}
			if op == "write" {
				if writes++; writes == failAt {
					return boom
				}
			}
			return nil
		})
		if _, err := SortSlice(d, recs, cfg); !errors.Is(err, boom) {
			t.Fatalf("write %d failing: Sort error = %v, want %v", failAt, err, boom)
		}
		if after != 0 {
			t.Fatalf("write %d failing: %d more disk operations after the failed write", failAt, after)
		}
		if d.NumPages() > maxRun {
			t.Fatalf("write %d failing: %d pages left allocated, more than a run's %d", failAt, d.NumPages(), maxRun)
		}
	}
}

// TestSortFreesEverythingOnWriteError fails each page write of a sort
// in turn — in run formation and in every merge pass — and checks that
// Sort returns the injected error and leaves the disk's live page count
// where it was before the sort: the runs written, the runs merged, and
// the partial list whose write failed are all freed. The race detector
// slows each sort tenfold and this test is single-goroutine, so a -race
// build fails every 16th write instead of every one.
func TestSortFreesEverythingOnWriteError(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(11)), 5000)
	cfg := Config{MemBytes: 4096}
	d := pager.NewDisk(512)
	total := 0
	d.SetFault(func(op string, _ pager.PageID) error {
		if op == "write" {
			total++
		}
		return nil
	})
	if _, err := SortSlice(d, recs, cfg); err != nil {
		t.Fatal(err)
	}
	step := 1
	if raceEnabled {
		step = 16
	}
	boom := errors.New("boom")
	for failAt := 1; failAt <= total; failAt += step {
		d := pager.NewDisk(512)
		before := d.NumPages()
		writes := 0
		d.SetFault(func(op string, _ pager.PageID) error {
			if op == "write" {
				if writes++; writes == failAt {
					return boom
				}
			}
			return nil
		})
		if _, err := SortSlice(d, recs, cfg); !errors.Is(err, boom) {
			t.Fatalf("write %d of %d failing: Sort error = %v, want %v", failAt, total, err, boom)
		}
		if got := d.NumPages(); got != before {
			t.Fatalf("write %d of %d failing: %d pages live after Sort, %d before", failAt, total, got, before)
		}
	}
}

// TestSortFreesEverythingOnReadError is the read-side twin of
// TestSortFreesEverythingOnWriteError: it fails each page read of the
// same sort in turn (every read is a merge pass reading its runs) and
// checks that Sort returns the injected error and leaves the disk's
// live page count where it was before the sort, the merge output being
// written when the read failed included. A -race build fails every
// 16th read instead of every one.
func TestSortFreesEverythingOnReadError(t *testing.T) {
	recs := randomRecords(rand.New(rand.NewSource(11)), 5000)
	cfg := Config{MemBytes: 4096}
	d := pager.NewDisk(512)
	total := 0
	d.SetFault(func(op string, _ pager.PageID) error {
		if op == "read" {
			total++
		}
		return nil
	})
	if _, err := SortSlice(d, recs, cfg); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("the sort read no pages")
	}
	step := 1
	if raceEnabled {
		step = 16
	}
	boom := errors.New("boom")
	for failAt := 1; failAt <= total; failAt += step {
		d := pager.NewDisk(512)
		before := d.NumPages()
		reads := 0
		d.SetFault(func(op string, _ pager.PageID) error {
			if op == "read" {
				if reads++; reads == failAt {
					return boom
				}
			}
			return nil
		})
		if _, err := SortSlice(d, recs, cfg); !errors.Is(err, boom) {
			t.Fatalf("read %d of %d failing: Sort error = %v, want %v", failAt, total, err, boom)
		}
		if got := d.NumPages(); got != before {
			t.Fatalf("read %d of %d failing: %d pages live after Sort, %d before", failAt, total, got, before)
		}
	}
}
