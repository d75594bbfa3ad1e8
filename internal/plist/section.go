package plist

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/model"
)

// A record section is a query's answer as it leaves the engine: one
// uvarint-length-prefixed record per entry, in list order, each the
// canonical record of its entry — its key, no label, zero annotations,
// and the entry's DN and pairs as they were stored. It is what
// AppendRecord(FromEntry(e)) writes for each entry e of the answer, but
// built from the list's bytes without building e. A reply frame carries
// one (DESIGN.md §6), and the result cache holds one per answer.

// AppendSection appends the records of l, a query's result list keyed
// by its own entries, to b as a record section and returns the extended
// slice. b grows once, by l.Size(): a canonical record is never longer
// than the list record it comes from. A record without an entry is
// refused with ErrNoEntry, as Drain refuses it.
func AppendSection(b []byte, l *List) ([]byte, error) {
	b = slices.Grow(b, int(l.Size()))
	rd := l.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
		if rec.pairs == nil {
			return nil, fmt.Errorf("%w: %q", ErrNoEntry, rec.Key)
		}
		c := Record{Key: rec.Key, dn: rec.dn, pairs: rec.pairs}
		b = binary.AppendUvarint(b, uint64(canonicalLen(&c)))
		b = AppendRecord(b, &c)
	}
}

// canonicalLen is len(AppendRecord(nil, r)) for a record with an
// encoded entry and no label, annotations or Aux.
func canonicalLen(r *Record) int {
	const header = 5 // label, A, B, Aux count, entry flag
	var keyLen [binary.MaxVarintLen64]byte
	return binary.PutUvarint(keyLen[:], uint64(len(r.Key))) + len(r.Key) + header + len(r.dn) + len(r.pairs)
}

// NextSectionRecord decodes the first record of sec into r, reusing
// r.Aux, and returns the rest of the section. The record must carry an
// entry (ErrNoEntry otherwise); a length that runs past sec, or record
// bytes DecodeRecord refuses, are ErrCorrupt. Like DecodeRecord, r
// aliases sec. It is the one walk over a section: SectionEntries and
// the reply reader of internal/dirserver both go through it.
func NextSectionRecord(sec []byte, r *Record) ([]byte, error) {
	n, k := binary.Uvarint(sec)
	if k <= 0 || n > uint64(len(sec)-k) {
		return nil, corrupt("record length")
	}
	if err := decodeInto(r, sec[k:k+int(n):k+int(n)]); err != nil {
		return nil, err
	}
	if r.pairs == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoEntry, r.Key)
	}
	return sec[k+int(n):], nil
}

// SectionEntries materializes every entry of a record section, in
// order (Record.Materialize: each takes its record's key). The entries
// share no memory with sec, so a section held read-only by a cache can
// be decoded by any number of callers.
func SectionEntries(sec []byte) ([]*model.Entry, error) {
	out := []*model.Entry{}
	var r Record
	for rest := sec; len(rest) > 0; {
		var err error
		if rest, err = NextSectionRecord(rest, &r); err != nil {
			return nil, err
		}
		e, _ := r.Materialize() // NextSectionRecord refused a record without one
		out = append(out, e)
	}
	return out, nil
}
