package plist

import (
	"io"
)

// RecordReader is the streaming interface shared by list readers, merge
// readers, and every operator in the evaluation engine: a sorted stream
// of records ending with io.EOF. Operators compose by consuming one or
// more RecordReaders and exposing another, which is how the paper's
// pipelined bottom-up query-tree evaluation (Section 8.2) is realized.
//
// A record belongs to the reader that returned it and is valid until
// that reader's next call to Next (see Reader.Next); consumers that keep
// one longer Clone it.
type RecordReader interface {
	Next() (*Record, error)
}

// Merge produces the lexicographic merge of k sorted inputs, as used by
// the stack algorithms' firstElement/nextElement(L1, L2[, L3]) and the
// boolean operators. Records with equal keys (the same entry occurring
// in several input lists) are combined into a single record whose label
// is the union of the inputs' labels: label(rl) = {i | rl in Li}. Input
// i's records are additionally tagged with label i (1-based) if tag is
// true.
type Merge struct {
	in    []RecordReader
	heads []*Record
	tag   bool
	err   error
}

// NewMerge builds a merge over the given inputs, tagging records from
// input i with label i.
func NewMerge(inputs ...RecordReader) *Merge {
	return &Merge{in: inputs, heads: make([]*Record, len(inputs)), tag: true}
}

// NewMergeUntagged merges without adding positional labels (existing
// labels are still unioned on key collisions).
func NewMergeUntagged(inputs ...RecordReader) *Merge {
	return &Merge{in: inputs, heads: make([]*Record, len(inputs)), tag: false}
}

func (m *Merge) fill(i int) error {
	if m.heads[i] != nil || m.in[i] == nil {
		return nil
	}
	rec, err := m.in[i].Next()
	if err == io.EOF {
		m.in[i] = nil
		return nil
	}
	if err != nil {
		return err
	}
	if m.tag {
		rec.Label |= 1 << i
	}
	m.heads[i] = rec
	return nil
}

// Next returns the next record in key order, or io.EOF. The record is
// one of the inputs' (relabelled in place), so it is valid until the
// next call.
func (m *Merge) Next() (*Record, error) {
	if m.err != nil {
		return nil, m.err
	}
	min := -1
	for i := range m.in {
		if err := m.fill(i); err != nil {
			m.err = err
			return nil, err
		}
		if m.heads[i] == nil {
			continue
		}
		if min == -1 || m.heads[i].Key < m.heads[min].Key {
			min = i
		}
	}
	if min == -1 {
		return nil, io.EOF
	}
	out := m.heads[min]
	m.heads[min] = nil
	// Combine equal keys from the other inputs.
	for i := min + 1; i < len(m.in); i++ {
		if m.heads[i] != nil && m.heads[i].Key == out.Key {
			h := m.heads[i]
			out.Label |= h.Label
			if !out.HasEntry() {
				out.Entry, out.dn, out.pairs = h.Entry, h.dn, h.pairs
			}
			m.heads[i] = nil
		}
	}
	return out, nil
}

// SliceReader adapts an in-memory record slice to the RecordReader
// interface (tests, small intermediates).
type SliceReader struct {
	recs []*Record
	i    int
}

// NewSliceReader wraps recs, which must already be sorted by key.
func NewSliceReader(recs []*Record) *SliceReader { return &SliceReader{recs: recs} }

// Next returns the next record or io.EOF.
func (s *SliceReader) Next() (*Record, error) {
	if s.i >= len(s.recs) {
		return nil, io.EOF
	}
	r := s.recs[s.i]
	s.i++
	return r, nil
}

// DrainReader exhausts any RecordReader into memory, cloning each record.
func DrainReader(r RecordReader) ([]*Record, error) {
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec.Clone())
	}
}
