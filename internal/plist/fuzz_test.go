package plist

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/model"
)

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder, seeded
// with the three inputs that used to crash it and a record per value
// kind. Bytes are either refused as ErrCorrupt or accepted, and the
// header decode is the only gate: a Reader hands out what it accepts and
// a Writer copies those bytes on unread, so everything downstream must
// hold for every accepted input without a second check —
//
//   - nothing decoded is larger than the input (no length or count is
//     trusted with an allocation);
//   - the full decode (Materialize, DN) does not fail, and the record
//     answers Values and Has from its bytes exactly as the materialized
//     entry does, for every attribute present and one absent;
//   - append ∘ decode is a byte fixpoint, both copying the entry through
//     and re-encoding the materialized one, and the two decode to equal
//     entries.
func FuzzDecodeRecord(f *testing.F) {
	for _, b := range crashers() {
		f.Add(b)
	}
	for _, r := range kindRecords() {
		f.Add(AppendRecord(nil, r))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := DecodeRecord(b)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if len(rec.Key) > len(b) || len(rec.Aux) > len(b) || rec.NumPairs() > len(b) || len(rec.DN()) > len(b) {
			t.Fatalf("decoded more than the %d bytes given: key %d, aux %d, pairs %d, DN %d",
				len(b), len(rec.Key), len(rec.Aux), rec.NumPairs(), len(rec.DN()))
		}

		copied := AppendRecord(nil, rec)
		again, err := DecodeRecord(copied)
		if err != nil {
			t.Fatalf("copied-through record does not decode: %v", err)
		}
		if !bytes.Equal(AppendRecord(nil, again), copied) {
			t.Fatal("append(decode(b)) is not a fixpoint when the entry is copied through")
		}
		if again.Key != rec.Key || again.Label != rec.Label || again.A != rec.A || again.B != rec.B ||
			len(again.Aux) != len(rec.Aux) || again.HasEntry() != rec.HasEntry() {
			t.Fatalf("header changed in a round trip: %+v, then %+v", rec, again)
		}
		if !rec.HasEntry() {
			if rec.Materialize() != nil || rec.Has("cn") || rec.Values("cn") != nil {
				t.Fatal("entry-less record answers as if it had one")
			}
			return
		}

		lazy := *rec // keeps answering from the bytes after rec materializes
		e := rec.Materialize()
		if e == nil || e.Key() != rec.Key || len(e.Pairs()) != lazy.NumPairs() || len(e.Pairs()) > len(b) {
			t.Fatalf("materialized %v from a record of %d pairs under %q", e, lazy.NumPairs(), rec.Key)
		}
		attrs := []string{"\x00 absent"}
		for _, av := range e.Pairs() {
			attrs = append(attrs, av.Attr)
		}
		for _, a := range attrs {
			got, want := lazy.Values(a), e.Values(a)
			if len(got) != len(want) || lazy.Has(a) != e.Has(a) {
				t.Fatalf("attribute %q: %d values and Has %v over the bytes, %d and %v in the entry",
					a, len(got), lazy.Has(a), len(want), e.Has(a))
			}
			for i := range want {
				// Compared as encoded: Value.Equal is false of a NaN component.
				if !bytes.Equal(appendValue(nil, got[i]), appendValue(nil, want[i])) {
					t.Fatalf("attribute %q value %d: %v over the bytes, %v in the entry", a, i, got[i], want[i])
				}
				if v := want[i]; v.Kind() == model.KindVector && len(v.Vec()) > len(b)/4 {
					t.Fatalf("vector of %d components from %d bytes", len(v.Vec()), len(b))
				}
			}
		}

		encoded := AppendRecord(nil, &Record{Key: rec.Key, Label: rec.Label, A: rec.A, B: rec.B, Aux: rec.Aux, Entry: e})
		back, err := DecodeRecord(encoded)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		if !bytes.Equal(AppendRecord(nil, back), encoded) {
			t.Fatal("append(decode(b)) is not a fixpoint when the entry is re-encoded")
		}
		if !bytes.Equal(appendEntry(nil, back.Materialize()), appendEntry(nil, e)) {
			t.Fatalf("re-encoded entry decodes to %s, was %s", back.Entry, e)
		}
	})
}
