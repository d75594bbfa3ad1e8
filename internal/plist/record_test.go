package plist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
)

// kindRecords is one record per value kind (plus one with every kind,
// aux, a label and annotations, and one without an entry): what the codec
// tests and the fuzz corpus start from.
func kindRecords() []*Record {
	mk := func(uid string, add func(*model.Entry)) *Record {
		e := model.NewEntry(model.MustParseDN("uid=" + uid + ", ou=k+l=x, dc=att, dc=com"))
		e.AddClass("inetOrgPerson")
		add(e)
		return FromEntry(e)
	}
	ref := model.DNValue(model.MustParseDN("tpname=t, dc=com"))
	all := mk("all", func(e *model.Entry) {
		e.Add("cn", model.String("all kinds")).Add("cn", model.String(""))
		e.Add("priority", model.Int(-7)).Add("priority", model.Int(1<<40))
		e.Add("slatpref", ref).Add("slatpref", model.DNValue(nil))
		e.Add("emb", model.VectorValue([]float32{1.5, -2, 0}))
	})
	all.Label, all.A, all.B, all.Aux = 5, -3, 1<<50, []int64{0, -1, 1 << 62}
	return []*Record{
		mk("str", func(e *model.Entry) { e.Add("cn", model.String("a string")) }),
		mk("int", func(e *model.Entry) { e.Add("priority", model.Int(42)) }),
		mk("dn", func(e *model.Entry) { e.Add("slatpref", ref) }),
		mk("vec", func(e *model.Entry) { e.Add("emb", model.VectorValue([]float32{0.25, 3})) }),
		all,
		{Key: "k\x00", Label: 3, A: 9, Aux: []int64{4}},
	}
}

// crashers are the three inputs that took the process down before
// decoding bounded its lengths: a key length of 1<<63 (the end offset
// wrapped negative), 1<<62 DN components and 1<<40 aux values (both
// handed straight to make).
func crashers() map[string][]byte {
	hdr := func(naux uint64) []byte {
		b := []byte{1, 'k', 0, 0, 0} // key "k", label, A, B
		return binary.AppendUvarint(b, naux)
	}
	return map[string][]byte{
		"key length 1<<63":    append(binary.AppendUvarint(nil, 1<<63), "0123456789"...),
		"DN components 1<<62": binary.AppendUvarint(append(hdr(0), 1), 1<<62),
		"aux count 1<<40":     append(hdr(1<<40), 2, 4, 6),
	}
}

func TestDecodeRecordHostileBytes(t *testing.T) {
	cases := crashers()
	good := AppendRecord(nil, kindRecords()[4])
	cases["trailing byte"] = append(append([]byte(nil), good...), 0)
	cases["trailing byte, no entry"] = append(AppendRecord(nil, &Record{Key: "k"}), 0)
	cases["entry flag 2"] = append(AppendRecord(nil, &Record{Key: "k"})[:6], 2)
	cases["empty"] = nil

	entry := func(pairs ...[]byte) []byte {
		b := append(AppendRecord(nil, &Record{Key: "k"})[:6], 1, 0) // has entry, empty DN
		b = binary.AppendUvarint(b, uint64(len(pairs)))
		return append(b, bytes.Join(pairs, nil)...)
	}
	cases["value kind 9"] = entry([]byte{1, 'a', 9, 0})
	cases["attributes out of order"] = entry([]byte{1, 'b', byte(model.KindInt), 2}, []byte{1, 'a', byte(model.KindInt), 2})
	cases["vector past the end"] = entry([]byte{1, 'a', byte(model.KindVector), 3, 0, 0, 0, 0})
	cases["pair count past the end"] = append(AppendRecord(nil, &Record{Key: "k"})[:6], 1, 0, 200)

	for name, b := range cases {
		if _, err := DecodeRecord(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeRecord = %v, want ErrCorrupt", name, err)
		}
	}
	if _, err := DecodeRecord(entry([]byte{1, 'a', byte(model.KindInt), 2}, []byte{1, 'a', byte(model.KindInt), 0})); err != nil {
		t.Errorf("equal attributes, values in stored order: %v", err)
	}
}

// TestReaderRefusesCorruptStream: what DecodeRecord refuses a Reader and
// a RandomReader refuse with the same error, and a record length that
// claims more than the list holds is refused before anything is sized by
// it.
func TestReaderRefusesCorruptStream(t *testing.T) {
	for name, body := range crashers() {
		d := pager.NewDisk(256)
		stream := append(binary.AppendUvarint(nil, uint64(len(body))), body...)
		l := rawList(t, d, stream, 1)
		if _, err := l.Reader().Next(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Reader.Next = %v, want ErrCorrupt", name, err)
		}
		if _, _, err := l.RandomReader().ReadAt(0); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ReadAt = %v, want ErrCorrupt", name, err)
		}
	}
	d := pager.NewDisk(256)
	l := rawList(t, d, append(binary.AppendUvarint(nil, 1<<50), 1, 2, 3), 1)
	if _, err := l.Reader().Next(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("record longer than its list: %v, want ErrCorrupt", err)
	}
	// A size the pages cannot back is an error, not an index out of range.
	short := Restore(d, l.PageIDs(), 3*256, 1)
	if _, _, err := short.RandomReader().ReadAt(2 * 256); err == nil {
		t.Error("read past the last page succeeded")
	}
}

// TestRecordLengthStraddlesPages: the second record's two-byte length
// starts on the last byte of the first page.
func TestRecordLengthStraddlesPages(t *testing.T) {
	poisoned(t, func(t *testing.T) {
		d := pager.NewDisk(64)
		recs := []*Record{{Key: strings.Repeat("a", 56)}, {Key: strings.Repeat("b", 200), A: 7}, {Key: "c"}}
		w := NewWriter(d)
		for i, r := range recs {
			if i == 1 && w.Offset() != 63 {
				t.Fatalf("second record starts at %d, want 63", w.Offset())
			}
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		l, err := w.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := DrainReader(l.Reader())
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "Reader", got, recs)
		rec, next, err := l.RandomReader().ReadAt(63)
		if err != nil || rec.Key != recs[1].Key || rec.A != 7 || next != l.Size()-int64(len(AppendRecord(nil, recs[2])))-1 {
			t.Fatalf("ReadAt(63) = %+v, %d, %v", rec, next, err)
		}
	})
}

// rawList lays stream out over fresh pages of d as a list of count
// records, bypassing the Writer.
func rawList(t *testing.T, d *pager.Disk, stream []byte, count int64) *List {
	t.Helper()
	var ids []pager.PageID
	for off := 0; off < len(stream); off += d.PageSize() {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, stream[off:min(off+d.PageSize(), len(stream))]); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return Restore(d, ids, int64(len(stream)), count)
}

// checkAgainstEntry asserts that a decoded record answers from its bytes
// what the entry it encodes answers: the contract of the one interface
// the engine reads attributes through.
func checkAgainstEntry(t *testing.T, rec *Record, want *model.Entry) {
	t.Helper()
	var _ model.Attrs = rec
	attrs := []string{"no-such-attr", "", "zz"}
	for _, av := range want.Pairs() {
		attrs = append(attrs, av.Attr)
	}
	for _, a := range attrs {
		got, w := rec.Values(a), want.Values(a)
		same := len(got) == len(w)
		for i := 0; same && i < len(w); i++ {
			same = got[i].Equal(w[i])
		}
		if !same {
			t.Fatalf("Values(%q) over the bytes = %v, the entry's %v", a, got, w)
		}
		if got, w := rec.Has(a), want.Has(a); got != w {
			t.Fatalf("Has(%q) over the bytes = %v, the entry's %v", a, got, w)
		}
	}
	if rec.NumPairs() != len(want.Pairs()) {
		t.Fatalf("NumPairs = %d, the entry has %d", rec.NumPairs(), len(want.Pairs()))
	}
	if !rec.DN().Equal(want.DN()) {
		t.Fatalf("DN = %s, want %s", rec.DN(), want.DN())
	}
}

func TestRecordAnswersFromBytes(t *testing.T) {
	for _, r := range kindRecords() {
		got, err := DecodeRecord(AppendRecord(nil, r))
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != r.Key || got.Label != r.Label || got.A != r.A || got.B != r.B || !reflect.DeepEqual(got.Aux, r.Aux) {
			t.Fatalf("header: got %+v, want %+v", got, r)
		}
		if r.Entry == nil {
			if got.HasEntry() || got.Values("cn") != nil || got.Has("cn") || got.DN() != nil || got.NumPairs() != 0 {
				t.Fatalf("entry-less record answers as if it had one: %+v", got)
			}
			continue
		}
		checkAgainstEntry(t, got, r.Entry)
		if got.Entry != nil {
			t.Fatal("reading attributes materialized the entry")
		}
		if e, err := got.Materialize(); err != nil || !e.Equal(r.Entry) || e.Key() != r.Key {
			t.Fatalf("materialized %s (%v), want %s", e, err, r.Entry)
		}
		checkAgainstEntry(t, got, r.Entry) // now answered by the entry: same answers

		// The pair records of the embedded-reference algorithms.
		under := got.Under("other\x00")
		if b := AppendRecord(nil, &under); !bytes.Equal(b, AppendRecord(nil, &Record{Key: "other\x00", Entry: r.Entry})) {
			t.Fatal("Under does not encode as the entry under the other key")
		}
		for _, src := range []*Record{got, r} { // from bytes, from memory
			stub := src.DNOnly("other\x00")
			want := &Record{Key: "other\x00", Entry: model.NewEntry(r.Entry.DN())}
			if b := AppendRecord(nil, &stub); !bytes.Equal(b, AppendRecord(nil, want)) {
				t.Fatal("DNOnly does not encode as a pair-less entry of the same DN")
			}
			if stub.DN().Key() != r.Key {
				t.Fatalf("DNOnly lost the entry's identity: %q", stub.DN().Key())
			}
		}
	}
}

// poisoned runs fn with PoisonReads on: every reader and stack then
// scribbles over what it handed out before handing out the next, so a
// consumer that keeps a record past its validity fails the comparison
// fn makes.
func poisoned(t *testing.T, fn func(t *testing.T)) {
	t.Run("as read", fn)
	PoisonReads(true)
	defer PoisonReads(false)
	t.Run("poisoned", fn)
}

func sameRecords(t *testing.T, what string, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(AppendRecord(nil, got[i]), AppendRecord(nil, want[i])) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestRecordsOutliveNothing drives every producer of reader-owned
// records — Reader, RandomReader, Merge, Materialize, Stack — through a
// round trip, plain and poisoned. The page size makes most records
// straddle pages, so both the in-place and the copied path run.
func TestRecordsOutliveNothing(t *testing.T) {
	poisoned(t, func(t *testing.T) {
		d := pager.NewDisk(128)
		recs := sortedRecords(90)
		for i, r := range recs {
			r.Aux = []int64{int64(i), -int64(i)}
		}
		l, err := Build(d, recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DrainReader(l.Reader())
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "Reader", got, recs)

		drained, err := Drain(l)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "Drain", drained, recs)
		for i, r := range drained {
			if r.Entry == nil || r.Entry.Key() != recs[i].Key {
				t.Fatalf("Drain left record %d without its entry", i)
			}
		}

		rr := l.RandomReader()
		var at []*Record
		for off := int64(0); off < l.Size(); {
			rec, next, err := rr.ReadAt(off)
			if err != nil {
				t.Fatal(err)
			}
			at = append(at, rec.Clone())
			off = next
		}
		sameRecords(t, "RandomReader", at, recs)

		// Three-way merge of the list split by i%3, one part also present
		// without entries: the merged stream is the list again, labelled.
		var parts [3][]*Record
		for i, r := range recs {
			parts[i%3] = append(parts[i%3], r)
			if i%3 == 1 {
				parts[0] = append(parts[0], &Record{Key: r.Key})
			}
		}
		var ins []RecordReader
		for _, p := range parts {
			pl, err := Build(d, p)
			if err != nil {
				t.Fatal(err)
			}
			ins = append(ins, pl.Reader())
		}
		ml, err := Materialize(d, NewMerge(ins...))
		if err != nil {
			t.Fatal(err)
		}
		merged, err := DrainReader(ml.Reader())
		if err != nil {
			t.Fatal(err)
		}
		want := make([]*Record, len(recs))
		for i, r := range recs {
			c := *r
			c.Label |= 1 << (i % 3)
			if i%3 == 1 { // the entry-less twin in input 1 comes first: its header, the other's entry
				c.Label |= 1
				c.A, c.B, c.Aux = 0, 0, nil
			}
			want[i] = &c
		}
		sameRecords(t, "Merge", merged, want)

		s := NewStack(d, 2)
		for _, r := range recs {
			if err := s.PushRecord(r); err != nil {
				t.Fatal(err)
			}
		}
		popped := make([]*Record, len(recs))
		for i := len(recs) - 1; i >= 0; i-- {
			rec, err := s.PopRecord()
			if err != nil {
				t.Fatal(err)
			}
			popped[i] = rec.Clone()
		}
		sameRecords(t, "Stack", popped, recs)
	})
}

// TestPoisonScribbles: the hook does what the tests above rely on — a
// record kept without Clone reads 0xDD after its reader moves on.
func TestPoisonScribbles(t *testing.T) {
	PoisonReads(true)
	defer PoisonReads(false)
	l, err := Build(pager.NewDisk(4096), sortedRecords(3))
	if err != nil {
		t.Fatal(err)
	}
	rd := l.Reader()
	first, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	kept := *first // a shallow copy still aliases the reader's bytes
	want := first.Clone()
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	if kept.Key == want.Key || kept.Key[0] != poison {
		t.Fatalf("kept key survived the reader's next record: %q", kept.Key)
	}
	if want.Key != sortedRecords(3)[0].Key {
		t.Fatalf("Clone did not detach: %q", want.Key)
	}
}

// TestCopyThroughIdentity: a list streamed Reader → Writer is the same
// list — page for page the same bytes, the same Size and Count — since
// Append copies an encoded entry instead of decoding and re-encoding it.
func TestCopyThroughIdentity(t *testing.T) {
	for _, ps := range []int{64, 256, 4096} {
		t.Run(fmt.Sprint(ps), func(t *testing.T) {
			d := pager.NewDisk(ps)
			recs := append(kindRecords(), sortedRecords(150)...)
			sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
			for i, r := range recs {
				if i%4 == 0 {
					r.Aux = []int64{int64(i), 1 << 40}
				}
			}
			l, err := Build(d, recs)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := Materialize(d, l.Reader())
			if err != nil {
				t.Fatal(err)
			}
			if cp.Size() != l.Size() || cp.Count() != l.Count() || cp.Pages() != l.Pages() {
				t.Fatalf("copy: size %d count %d pages %d, source %d %d %d",
					cp.Size(), cp.Count(), cp.Pages(), l.Size(), l.Count(), l.Pages())
			}
			a, b := make([]byte, ps), make([]byte, ps)
			for i, id := range l.PageIDs() {
				if err := d.Read(id, a); err != nil {
					t.Fatal(err)
				}
				if err := d.Read(cp.PageIDs()[i], b); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("page %d differs between source and copy", i)
				}
			}
		})
	}
}
