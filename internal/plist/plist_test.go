package plist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/pager"
)

func testRecord(i int) *Record {
	dn := model.MustParseDN(fmt.Sprintf("uid=u%04d, dc=att, dc=com", i))
	e := model.NewEntry(dn)
	e.AddClass("inetOrgPerson")
	e.Add("uid", model.String(fmt.Sprintf("u%04d", i)))
	e.Add("priority", model.Int(int64(i%5)))
	if i%3 == 0 {
		e.Add("slatpref", model.DNValue(model.MustParseDN("tpname=t, dc=com")))
	}
	r := FromEntry(e)
	r.A, r.B = int64(i), int64(-i)
	r.Label = uint8(i % 4)
	return r
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := testRecord(i)
		b := AppendRecord(nil, r)
		got, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got.Key != r.Key || got.Label != r.Label || got.A != r.A || got.B != r.B {
			t.Fatalf("header mismatch: %+v vs %+v", got, r)
		}
		if got.Entry != nil || !got.HasEntry() {
			t.Fatalf("decoded record %d: Entry %v, HasEntry %v; want the entry encoded only", i, got.Entry, got.HasEntry())
		}
		if e, err := got.Materialize(); err != nil || !e.Equal(r.Entry) || e.Key() != r.Key {
			t.Fatalf("entry mismatch (%v):\n%s\nvs\n%s", err, e, r.Entry)
		}
	}
}

func TestRecordCodecNilEntry(t *testing.T) {
	r := &Record{Key: "k\x00", Label: 3, A: 9}
	got, err := DecodeRecord(AppendRecord(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if _, merr := got.Materialize(); got.HasEntry() || !errors.Is(merr, ErrNoEntry) || got.Key != r.Key || got.A != 9 {
		t.Fatalf("got %+v, Materialize: %v", got, merr)
	}
}

func TestRecordCodecTruncation(t *testing.T) {
	b := AppendRecord(nil, testRecord(1))
	for cut := 0; cut < len(b); cut++ {
		if _, err := DecodeRecord(b[:cut]); err == nil {
			// A prefix that happens to decode fully is impossible given the
			// trailing entry payload, except cut points that truncate only
			// padding — there is none, so any success is a bug.
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

func sortedRecords(n int) []*Record {
	recs := make([]*Record, n)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	return recs
}

func TestListWriteRead(t *testing.T) {
	d := pager.NewDisk(256) // small pages force records across boundaries
	recs := sortedRecords(200)
	l, err := Build(d, recs)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 200 {
		t.Fatalf("count = %d", l.Count())
	}
	got, err := Drain(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("drained %d", len(got))
	}
	for i := range got {
		if got[i].Key != recs[i].Key || !got[i].Entry.Equal(recs[i].Entry) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	sec, err := AppendSection(nil, l)
	if err != nil {
		t.Fatalf("AppendSection: %v", err)
	}
	entries, err := SectionEntries(sec)
	if err != nil || len(entries) != len(recs) {
		t.Fatalf("SectionEntries: %d entries, %v", len(entries), err)
	}
	for i, e := range entries {
		if e.Key() != recs[i].Key || !e.Equal(recs[i].Entry) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	keys, err := Build(d, []*Record{{Key: "k\x00"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendSection(nil, keys); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("AppendSection of a keys-only list: %v, want ErrNoEntry", err)
	}
}

// TestSectionIsCanonicalRecords: a list's record section is, record for
// record, the length-prefixed AppendRecord(FromEntry(e)) of its entries,
// whatever labels and annotations the list's records carried, and it
// fits in the list's stream bytes. NextSectionRecord walks it back, and
// refuses a section cut short or a record without an entry.
func TestSectionIsCanonicalRecords(t *testing.T) {
	d := pager.NewDisk(256)
	recs := sortedRecords(150)
	for i, r := range recs {
		r.Label, r.A, r.B, r.Aux = uint8(i%4), int64(i), -int64(i), []int64{int64(i), 7}
	}
	l, err := Build(d, recs)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("head")
	sec, err := AppendSection(prefix, l)
	if err != nil {
		t.Fatal(err)
	}
	if string(sec[:len(prefix)]) != "head" || int64(len(sec)-len(prefix)) > l.Size() {
		t.Fatalf("section of %d bytes after its prefix, list of %d", len(sec)-len(prefix), l.Size())
	}
	sec = sec[len(prefix):]
	var want []byte
	for _, r := range recs {
		one := AppendRecord(nil, FromEntry(r.Entry))
		want = append(binary.AppendUvarint(want, uint64(len(one))), one...)
	}
	if !bytes.Equal(sec, want) {
		t.Fatalf("section differs from the entries' canonical records")
	}
	var r Record
	rest, n := sec, 0
	for ; len(rest) > 0; n++ {
		if rest, err = NextSectionRecord(rest, &r); err != nil {
			t.Fatalf("record %d: %v", n, err)
		}
		if r.Key != recs[n].Key || r.Label != 0 || r.A != 0 || r.B != 0 || len(r.Aux) != 0 {
			t.Fatalf("record %d: %+v", n, r)
		}
	}
	if n != len(recs) {
		t.Fatalf("walked %d records, want %d", n, len(recs))
	}
	for rest, err = sec[:len(sec)-1], nil; err == nil; {
		rest, err = NextSectionRecord(rest, &r)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("section cut one byte short: %v, want ErrCorrupt", err)
	}
	keyOnly := AppendRecord(nil, &Record{Key: "k\x00"})
	if _, err := NextSectionRecord(append([]byte{byte(len(keyOnly))}, keyOnly...), &r); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("key-only record: %v, want ErrNoEntry", err)
	}
}

func TestListReaderIO(t *testing.T) {
	// Reading a list must cost exactly its page count.
	d := pager.NewDisk(512)
	l, err := Build(d, sortedRecords(300))
	if err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if _, err := Drain(l); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Reads != int64(l.Pages()) {
		t.Fatalf("reads = %d, pages = %d", st.Reads, l.Pages())
	}
	if st.Writes != 0 {
		t.Fatalf("reads should not write: %+v", st)
	}
}

func TestListWriterIO(t *testing.T) {
	// Writing a list must cost exactly one write per page.
	d := pager.NewDisk(512)
	w := NewWriter(d)
	for _, r := range sortedRecords(300) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Writes != int64(l.Pages()) {
		t.Fatalf("writes = %d, pages = %d", st.Writes, l.Pages())
	}
}

func TestWriterRejectsUnsorted(t *testing.T) {
	d := pager.NewDisk(256)
	w := NewWriter(d)
	if err := w.Append(&Record{Key: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Key: "a"}); err == nil {
		t.Fatal("unsorted append accepted")
	}
	w2 := NewWriter(d).Unordered()
	if err := w2.Append(&Record{Key: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(&Record{Key: "a"}); err != nil {
		t.Fatalf("unordered writer rejected: %v", err)
	}
}

func TestListFree(t *testing.T) {
	d := pager.NewDisk(256)
	l, err := Build(d, sortedRecords(100))
	if err != nil {
		t.Fatal(err)
	}
	n := d.NumPages()
	if err := l.Free(); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() != 0 {
		t.Fatalf("pages not freed: %d -> %d", n, d.NumPages())
	}
}

func TestEmptyList(t *testing.T) {
	d := pager.NewDisk(256)
	l, err := Build(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count() != 0 || l.Pages() != 0 {
		t.Fatalf("empty list: count=%d pages=%d", l.Count(), l.Pages())
	}
	if _, err := l.Reader().Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestStackLIFO(t *testing.T) {
	d := pager.NewDisk(128)
	s := NewStack(d, 2)
	var want [][]byte
	for i := 0; i < 100; i++ {
		f := []byte(strings.Repeat("x", i%37) + fmt.Sprint(i))
		want = append(want, f)
		if err := s.Push(f); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 100 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := 99; i >= 0; i-- {
		got, err := s.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[i]) {
			t.Fatalf("pop %d: %q != %q", i, got, want[i])
		}
	}
	if !s.Empty() {
		t.Fatal("stack not empty")
	}
	if _, err := s.Pop(); err == nil {
		t.Fatal("pop of empty stack succeeded")
	}
}

func TestStackSpillsAndRefetches(t *testing.T) {
	d := pager.NewDisk(128)
	s := NewStack(d, 2)
	frame := []byte(strings.Repeat("f", 40))
	for i := 0; i < 50; i++ { // ~50*44 bytes >> 2*128 window
		if err := s.Push(frame); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Writes == 0 {
		t.Fatal("deep stack should have spilled")
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Pop(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Stats().Reads == 0 {
		t.Fatal("popping past window should have re-fetched spilled pages")
	}
}

func TestStackIOLinear(t *testing.T) {
	// Total stack I/O must be O(bytes pushed / page size): grow-shrink
	// cycles may re-fetch but must stay linear.
	d := pager.NewDisk(128)
	s := NewStack(d, 2)
	frame := []byte(strings.Repeat("z", 28)) // 32B with header
	pushes := 0
	r := rand.New(rand.NewSource(5))
	for cycle := 0; cycle < 20; cycle++ {
		n := 20 + r.Intn(60)
		for i := 0; i < n; i++ {
			if err := s.Push(frame); err != nil {
				t.Fatal(err)
			}
			pushes++
		}
		for i := 0; i < n && !s.Empty(); i++ {
			if _, err := s.Pop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	io := d.Stats().IO()
	bytesMoved := int64(pushes) * 32
	pagesMoved := bytesMoved / 128
	if io > 4*pagesMoved {
		t.Fatalf("stack I/O %d exceeds linear bound %d", io, 4*pagesMoved)
	}
}

func TestStackRecords(t *testing.T) {
	d := pager.NewDisk(256)
	s := NewStack(d, 2)
	r1, r2 := testRecord(1), testRecord(2)
	if err := s.PushRecord(r1); err != nil {
		t.Fatal(err)
	}
	if err := s.PushRecord(r2); err != nil {
		t.Fatal(err)
	}
	got2, err := s.PopRecord()
	if err != nil || got2.Key != r2.Key {
		t.Fatalf("pop2: %v %v", got2, err)
	}
	got1, err := s.PopRecord()
	if err != nil {
		t.Fatalf("pop1: %v", err)
	}
	if e, err := got1.Materialize(); err != nil || !e.Equal(r1.Entry) {
		t.Fatalf("pop1: %v %v", got1, err)
	}
}

func TestStackRelease(t *testing.T) {
	d := pager.NewDisk(128)
	s := NewStack(d, 2)
	for i := 0; i < 40; i++ {
		if err := s.Push([]byte(strings.Repeat("a", 30))); err != nil {
			t.Fatal(err)
		}
	}
	s.Release()
	if !s.Empty() {
		t.Fatal("release did not empty stack")
	}
	if d.NumPages() != 0 {
		t.Fatalf("release leaked %d pages", d.NumPages())
	}
}

func TestMergeCombinesAndOrders(t *testing.T) {
	d := pager.NewDisk(256)
	mk := func(keys ...string) *List {
		var recs []*Record
		for _, k := range keys {
			recs = append(recs, &Record{Key: k})
		}
		l, err := Build(d, recs)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l1 := mk("a", "c", "e")
	l2 := mk("b", "c", "f")
	m := NewMerge(l1.Reader(), l2.Reader())
	got, err := DrainReader(m)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"a", "b", "c", "e", "f"}
	if len(got) != len(wantKeys) {
		t.Fatalf("got %d records", len(got))
	}
	for i, r := range got {
		if r.Key != wantKeys[i] {
			t.Fatalf("key %d = %q", i, r.Key)
		}
	}
	// "c" is in both: label {1,2}.
	if !got[2].HasLabel(1) || !got[2].HasLabel(2) {
		t.Fatalf("combined label = %b", got[2].Label)
	}
	if got[0].HasLabel(2) || got[4].HasLabel(1) {
		t.Fatal("labels leaked across inputs")
	}
}

func TestMergeThreeWay(t *testing.T) {
	d := pager.NewDisk(256)
	mk := func(keys ...string) RecordReader {
		var recs []*Record
		for _, k := range keys {
			recs = append(recs, &Record{Key: k})
		}
		l, err := Build(d, recs)
		if err != nil {
			t.Fatal(err)
		}
		return l.Reader()
	}
	m := NewMerge(mk("a", "d"), mk("b", "d"), mk("c", "d"))
	got, err := DrainReader(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d", len(got))
	}
	last := got[3]
	if last.Key != "d" || !last.HasLabel(1) || !last.HasLabel(2) || !last.HasLabel(3) {
		t.Fatalf("3-way combine failed: %+v", last)
	}
}

func TestQuickMergeEqualsSortedUnion(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		mkKeys := func() []string {
			n := r.Intn(20)
			ks := make([]string, n)
			for i := range ks {
				ks[i] = string(rune('a' + r.Intn(10)))
			}
			sort.Strings(ks)
			// dedupe: lists are sets of entries
			out := ks[:0]
			for i, k := range ks {
				if i == 0 || k != ks[i-1] {
					out = append(out, k)
				}
			}
			return out
		}
		k1, k2 := mkKeys(), mkKeys()
		var r1, r2 []*Record
		for _, k := range k1 {
			r1 = append(r1, &Record{Key: k})
		}
		for _, k := range k2 {
			r2 = append(r2, &Record{Key: k})
		}
		m := NewMerge(NewSliceReader(r1), NewSliceReader(r2))
		got, err := DrainReader(m)
		if err != nil {
			return false
		}
		want := map[string]bool{}
		for _, k := range k1 {
			want[k] = true
		}
		for _, k := range k2 {
			want[k] = true
		}
		if len(got) != len(want) {
			return false
		}
		for i, rec := range got {
			if !want[rec.Key] {
				return false
			}
			if i > 0 && got[i-1].Key >= rec.Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMaterialize(t *testing.T) {
	d := pager.NewDisk(256)
	recs := sortedRecords(50)
	l, err := Materialize(d, NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(l)
	if err != nil || len(got) != 50 {
		t.Fatalf("%d, %v", len(got), err)
	}
}
