// Package plist implements paged lists of directory-entry records — the
// sorted lists all evaluation algorithms of "Querying Network
// Directories" consume and produce — together with the spillable stack
// those algorithms use, and k-way merging of sorted lists.
//
// A list is a sequence of variable-length records stored as a byte
// stream across fixed-size pages of a pager.Disk. Readers and writers
// hold at most one page each, and the stack holds a bounded window of
// pages, so every operator runs in constant memory; everything else is
// counted page I/O.
package plist

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/model"
)

// Record is one element of a list: a directory entry tagged with its
// reverse-DN key, the label of which input lists it came from (the
// label(rl) = {i | rl in Li} of Figures 2/4/5), and two operator-specific
// annotation counters (the paper's above/below or aggregate values).
type Record struct {
	Key   string
	Label uint8   // bitmask: bit i-1 set iff the record is in list Li
	A, B  int64   // operator annotations, e.g. (above, below)
	Aux   []int64 // extended operator state (aggregate statistics)
	Entry *model.Entry
}

// HasLabel reports whether the record belongs to list i (1-based).
func (r *Record) HasLabel(i int) bool { return r.Label&(1<<(i-1)) != 0 }

// WithLabel returns a copy of the record tagged as belonging to list i.
func (r Record) WithLabel(i int) Record {
	r.Label |= 1 << (i - 1)
	return r
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendVarint(b []byte, v int64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendDN(b []byte, dn model.DN) []byte {
	b = appendUvarint(b, uint64(len(dn)))
	for _, rdn := range dn {
		b = appendUvarint(b, uint64(len(rdn)))
		for _, ava := range rdn {
			b = appendString(b, ava.Attr)
			b = appendString(b, ava.Value)
		}
	}
	return b
}

func appendValue(b []byte, v model.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case model.KindString:
		b = appendString(b, v.Str())
	case model.KindInt:
		b = appendVarint(b, v.Int())
	case model.KindDN:
		b = appendDN(b, v.DN())
	case model.KindVector:
		vec := v.Vec()
		b = appendUvarint(b, uint64(len(vec)))
		for _, f := range vec {
			var tmp [4]byte
			binary.LittleEndian.PutUint32(tmp[:], math.Float32bits(f))
			b = append(b, tmp[:]...)
		}
	}
	return b
}

// AppendRecord serializes r onto b and returns the extended slice.
func AppendRecord(b []byte, r *Record) []byte {
	b = appendString(b, r.Key)
	b = append(b, r.Label)
	b = appendVarint(b, r.A)
	b = appendVarint(b, r.B)
	b = appendUvarint(b, uint64(len(r.Aux)))
	for _, v := range r.Aux {
		b = appendVarint(b, v)
	}
	if r.Entry == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendDN(b, r.Entry.DN())
	pairs := r.Entry.Pairs()
	b = appendUvarint(b, uint64(len(pairs)))
	for _, av := range pairs {
		b = appendString(b, av.Attr)
		b = appendValue(b, av.Value)
	}
	return b
}

type decoder struct {
	b []byte
	i int
}

var errTruncated = fmt.Errorf("plist: truncated record")

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.i += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		return 0, errTruncated
	}
	d.i += n
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if d.i+int(n) > len(d.b) {
		return "", errTruncated
	}
	s := string(d.b[d.i : d.i+int(n)])
	d.i += int(n)
	return s, nil
}

func (d *decoder) byte() (byte, error) {
	if d.i >= len(d.b) {
		return 0, errTruncated
	}
	c := d.b[d.i]
	d.i++
	return c, nil
}

func (d *decoder) dn() (model.DN, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	dn := make(model.DN, n)
	for i := range dn {
		m, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		rdn := make(model.RDN, m)
		for j := range rdn {
			if rdn[j].Attr, err = d.str(); err != nil {
				return nil, err
			}
			if rdn[j].Value, err = d.str(); err != nil {
				return nil, err
			}
		}
		dn[i] = rdn
	}
	return dn, nil
}

func (d *decoder) value() (model.Value, error) {
	k, err := d.byte()
	if err != nil {
		return model.Value{}, err
	}
	switch model.Kind(k) {
	case model.KindString:
		s, err := d.str()
		return model.String(s), err
	case model.KindInt:
		i, err := d.varint()
		return model.Int(i), err
	case model.KindDN:
		dn, err := d.dn()
		return model.DNValue(dn), err
	case model.KindVector:
		n, err := d.uvarint()
		if err != nil {
			return model.Value{}, err
		}
		if n > uint64(len(d.b)-d.i)/4 {
			return model.Value{}, errTruncated
		}
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.b[d.i:]))
			d.i += 4
		}
		return model.VectorValue(vec), nil
	default:
		return model.Value{}, fmt.Errorf("plist: bad value kind %d", k)
	}
}

// DecodeRecord parses one serialized record from b, which must contain
// exactly one record.
func DecodeRecord(b []byte) (*Record, error) {
	d := &decoder{b: b}
	r := &Record{}
	var err error
	if r.Key, err = d.str(); err != nil {
		return nil, err
	}
	if r.Label, err = d.byte(); err != nil {
		return nil, err
	}
	if r.A, err = d.varint(); err != nil {
		return nil, err
	}
	if r.B, err = d.varint(); err != nil {
		return nil, err
	}
	naux, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if naux > 0 {
		r.Aux = make([]int64, naux)
		for i := range r.Aux {
			if r.Aux[i], err = d.varint(); err != nil {
				return nil, err
			}
		}
	}
	has, err := d.byte()
	if err != nil {
		return nil, err
	}
	if has == 0 {
		return r, nil
	}
	dn, err := d.dn()
	if err != nil {
		return nil, err
	}
	e := model.NewEntry(dn)
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	// Every pair is at least two bytes, which bounds what a corrupt count
	// can reserve.
	e.Grow(int(min(n, uint64(len(d.b)-d.i)/2)))
	for i := uint64(0); i < n; i++ {
		attr, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		e.Add(attr, v)
	}
	r.Entry = e
	return r, nil
}

// FromEntry builds the canonical record for a directory entry: its key,
// no labels, zero annotations.
func FromEntry(e *model.Entry) *Record {
	return &Record{Key: e.Key(), Entry: e}
}
