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
//
// The algorithms compare keys and read at most a named attribute or
// two, so the read path moves records encoded: a reader decodes a
// record's header (key, label, annotations), checks the structure of the
// entry that follows in one pass and keeps it as bytes; Writer.Append
// copies those bytes through; Record.Values and Record.Has answer from
// them. A model.Entry is built only by Record.Materialize and Drain —
// where an entry leaves the engine or is checked whole.
package plist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/model"
)

// ErrCorrupt reports record bytes that are not the encoding of one
// record: truncated, a length or count larger than the bytes that remain,
// an unknown value kind, attributes out of order, or bytes left over.
var ErrCorrupt = errors.New("plist: corrupt record")

func corrupt(what string) error { return fmt.Errorf("%w (%s)", ErrCorrupt, what) }

// ErrNoEntry reports a record that carries no entry — a key-only record
// of an operand evaluated for its keys — where an entry must leave the
// engine.
var ErrNoEntry = errors.New("plist: record carries no entry")

// Record is one element of a list: a directory entry tagged with its
// reverse-DN key, the label of which input lists it came from (the
// label(rl) = {i | rl in Li} of Figures 2/4/5), and two operator-specific
// annotation counters (the paper's above/below or aggregate values).
//
// The entry has two forms. Entry is the in-memory one, set by whoever
// builds a record from an entry (FromEntry) and by Materialize and Drain.
// A record decoded from bytes — by a Reader, a RandomReader, a Stack or
// DecodeRecord — carries the entry encoded and leaves Entry nil: test
// HasEntry, not the field, and read it through Values, Has, DN or
// Materialize. Such a record aliases the bytes it was decoded from (see
// Reader.Next for how long a reader keeps them); Clone detaches it.
type Record struct {
	Key   string
	Label uint8   // bitmask: bit i-1 set iff the record is in list Li
	A, B  int64   // operator annotations, e.g. (above, below)
	Aux   []int64 // extended operator state (aggregate statistics)
	Entry *model.Entry

	// The encoded entry, structure already checked: its DN, and its
	// count-prefixed pairs in attribute order. pairs is nil iff the record
	// has no encoded entry.
	dn, pairs []byte
}

// noPairs is the pairs encoding of an entry without attribute values.
var noPairs = []byte{0}

// HasLabel reports whether the record belongs to list i (1-based).
func (r *Record) HasLabel(i int) bool { return r.Label&(1<<(i-1)) != 0 }

// WithLabel returns a copy of the record tagged as belonging to list i.
func (r Record) WithLabel(i int) Record {
	r.Label |= 1 << (i - 1)
	return r
}

// HasEntry reports whether the record carries an entry, in either form.
func (r *Record) HasEntry() bool { return r.Entry != nil || r.pairs != nil }

// Under returns a record carrying r's entry under another key, without
// labels or annotations — how the embedded-reference algorithms pair an
// entry with a DN it refers to. It shares r's entry bytes.
func (r *Record) Under(key string) Record {
	return Record{Key: key, Entry: r.Entry, dn: r.dn, pairs: r.pairs}
}

// DNOnly is Under with the entry cut down to its DN: the pair that
// carries only the referencing entry's identity.
func (r *Record) DNOnly(key string) Record {
	if r.pairs != nil {
		return Record{Key: key, dn: r.dn, pairs: noPairs}
	}
	return Record{Key: key, Entry: model.EntryOf(r.Entry.DN(), r.Entry.Key(), nil)}
}

// Clone returns a copy that shares no memory with the bytes r was
// decoded from, for holding a record past its reader's next call.
func (r *Record) Clone() *Record {
	c := *r
	c.Key = strings.Clone(r.Key)
	c.Aux = slices.Clone(r.Aux)
	if r.pairs != nil {
		b := append(append(make([]byte, 0, len(r.dn)+len(r.pairs)), r.dn...), r.pairs...)
		c.dn, c.pairs = b[:len(r.dn):len(r.dn)], b[len(r.dn):]
	}
	return &c
}

// DN returns the entry's distinguished name, decoding only that much of
// an encoded entry. For a record keyed by something other than its own
// entry (Under), DN().Key() is the way back to the entry's key.
func (r *Record) DN() model.DN {
	if r.Entry != nil {
		return r.Entry.DN()
	}
	if r.pairs == nil {
		return nil
	}
	d := decoder{b: r.dn}
	return d.dn()
}

// NumPairs returns |val(r)| of the record's entry, 0 without one.
func (r *Record) NumPairs() int {
	if r.pairs != nil {
		n, _ := binary.Uvarint(r.pairs)
		return int(n)
	}
	if r.Entry != nil {
		return len(r.Entry.Pairs())
	}
	return 0
}

// Materialize returns the record's entry, building it from the encoded
// form on first use, or ErrNoEntry if the record has none. The entry
// takes the record's key as its own instead of deriving it from the DN
// again, so this is for records keyed by their own entry — every list
// but the pair lists Under and DNOnly make. The entry shares no memory
// with the record's bytes.
func (r *Record) Materialize() (*model.Entry, error) {
	if r.Entry == nil && r.pairs != nil {
		r.Entry = r.decodeEntry(strings.Clone(r.Key))
	}
	if r.Entry == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoEntry, r.Key)
	}
	return r.Entry, nil
}

func (r *Record) decodeEntry(key string) *model.Entry {
	d := decoder{b: r.dn}
	dn := d.dn()
	d = decoder{b: r.pairs}
	n, _ := d.uvarint()
	avs := make([]model.AV, n)
	for i := range avs {
		attr, _ := d.span()
		avs[i] = model.AV{Attr: string(attr), Value: d.value()}
	}
	return model.EntryOf(dn, key, avs)
}

// CheckTypes reports whether the record's entry is typed as schema s
// types it — what parsing the entry's text against s enforces: every
// attribute is one of s's, every value has its attribute type's kind,
// and a vector has the type's dimension and finite components. An
// encoded entry is checked in place, nothing decoded; a record without
// an entry passes.
func (r *Record) CheckTypes(s *model.Schema) error {
	if r.pairs == nil {
		if r.Entry != nil {
			for _, av := range r.Entry.Pairs() {
				vec := av.Value.Vec()
				finite := true
				for _, f := range vec {
					finite = finite && isFinite(f)
				}
				if err := checkType(s, av.Attr, av.Value.Kind(), len(vec), finite); err != nil {
					return err
				}
			}
		}
		return nil
	}
	d := decoder{b: r.pairs}
	n, _ := d.uvarint()
	for ; n > 0; n-- {
		attr, _ := d.span()
		k, comps, finite := model.Kind(d.b[d.i]), 0, true
		if k == model.KindVector {
			d.i++
			m, _ := d.uvarint()
			for comps = int(m); m > 0; m-- {
				finite = finite && isFinite(math.Float32frombits(binary.LittleEndian.Uint32(d.b[d.i:])))
				d.i += 4
			}
		} else {
			d.skipValue()
		}
		if err := checkType(s, aliasString(attr), k, comps, finite); err != nil {
			return err
		}
	}
	return nil
}

func isFinite(f float32) bool { return !math.IsNaN(float64(f)) && !math.IsInf(float64(f), 0) }

// checkType checks one pair against s; a vector value has comps
// components, all finite or not.
func checkType(s *model.Schema, attr string, k model.Kind, comps int, finite bool) error {
	t, ok := s.AttrType(attr)
	switch {
	case !ok:
		return fmt.Errorf("plist: unknown attribute %q", attr)
	case model.TypeKind(t) != k:
		return fmt.Errorf("plist: attribute %q has type %s but value kind %s", attr, t, k)
	case k != model.KindVector:
		return nil
	}
	if dim, _ := model.VectorDim(t); comps != dim {
		return fmt.Errorf("plist: vector %q has %d components, type %s wants %d", attr, comps, t, dim)
	}
	if !finite {
		return fmt.Errorf("plist: vector %q has a component that is not finite", attr)
	}
	return nil
}

// Values returns the values of attribute a in stored order, decoding
// nothing else: the encoded pairs are in attribute order, so the scan
// skips the smaller attributes by their lengths and stops at the first
// larger one. With Has it makes *Record a model.Attrs.
func (r *Record) Values(a string) []model.Value {
	if r.Entry != nil {
		return r.Entry.Values(a)
	}
	var out []model.Value
	r.scan(model.NormalizeAttr(a), func(d *decoder) bool {
		out = append(out, d.value())
		return true
	})
	return out
}

// Has reports whether the entry specifies at least one value for a.
func (r *Record) Has(a string) bool {
	if r.Entry != nil {
		return r.Entry.Has(a)
	}
	found := false
	r.scan(model.NormalizeAttr(a), func(*decoder) bool {
		found = true
		return false
	})
	return found
}

// scan positions a decoder at each value of the (normalized) attribute a
// in the encoded pairs and calls fn, which consumes the value and reports
// whether to go on.
func (r *Record) scan(a string, fn func(*decoder) bool) {
	if r.pairs == nil {
		return
	}
	d := decoder{b: r.pairs}
	n, _ := d.uvarint()
	for ; n > 0; n-- {
		attr, _ := d.span()
		switch c := strings.Compare(aliasString(attr), a); {
		case c < 0:
			d.skipValue()
		case c > 0:
			return
		default:
			if !fn(&d) {
				return
			}
		}
	}
}

// aliasString views b as a string without copying. The string is only as
// immutable as b: every use here is either transient or documented on
// the value that carries it (Record.Key of a decoded record).
func aliasString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
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
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(f))
		}
	}
	return b
}

// appendEntry serializes an in-memory entry: its DN and its pairs.
func appendEntry(b []byte, e *model.Entry) []byte {
	b = appendDN(b, e.DN())
	pairs := e.Pairs()
	b = appendUvarint(b, uint64(len(pairs)))
	for _, av := range pairs {
		b = appendString(b, av.Attr)
		b = appendValue(b, av.Value)
	}
	return b
}

// AppendRecord serializes r onto b and returns the extended slice. An
// encoded entry is copied as it is; an in-memory one is encoded.
func AppendRecord(b []byte, r *Record) []byte {
	b = appendString(b, r.Key)
	b = append(b, r.Label)
	b = appendVarint(b, r.A)
	b = appendVarint(b, r.B)
	b = appendUvarint(b, uint64(len(r.Aux)))
	for _, v := range r.Aux {
		b = appendVarint(b, v)
	}
	switch {
	case r.pairs != nil:
		return append(append(append(b, 1), r.dn...), r.pairs...)
	case r.Entry != nil:
		return appendEntry(append(b, 1), r.Entry)
	}
	return append(b, 0)
}

// decoder reads the record encoding. Every length and count is checked
// against the bytes that remain before it is used, so hostile bytes cost
// at most a walk over them. The checking methods report ok; dn and value
// build model values and are for bytes a check has already passed.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) left() uint64 { return uint64(len(d.b) - d.i) }

func (d *decoder) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.b[d.i:])
	if n <= 0 {
		return 0, false
	}
	d.i += n
	return v, true
}

func (d *decoder) varint() (int64, bool) {
	v, n := binary.Varint(d.b[d.i:])
	if n <= 0 {
		return 0, false
	}
	d.i += n
	return v, true
}

// count reads the number of items that follow, each at least 1<<shift
// bytes. Nearly every count and length is one byte, which count and
// span read without a call: between them they are most of what reading
// a list costs.
func (d *decoder) count(shift uint) (int, bool) {
	var n uint64
	if i := d.i; i < len(d.b) && d.b[i] < 0x80 {
		n, d.i = uint64(d.b[i]), i+1
	} else {
		var ok bool
		if n, ok = d.uvarint(); !ok {
			return 0, false
		}
	}
	if n > d.left()>>shift {
		return 0, false
	}
	return int(n), true
}

// span reads a length-prefixed run of bytes, aliasing the input.
func (d *decoder) span() ([]byte, bool) {
	if i := d.i; i < len(d.b) && d.b[i] < 0x80 {
		j := i + 1 + int(d.b[i])
		if j > len(d.b) {
			return nil, false
		}
		d.i = j
		return d.b[i+1 : j : j], true
	}
	n, ok := d.count(0)
	if !ok {
		return nil, false
	}
	d.i += n
	return d.b[d.i-n : d.i : d.i], true
}

func (d *decoder) byte() (byte, bool) {
	if d.i >= len(d.b) {
		return 0, false
	}
	d.i++
	return d.b[d.i-1], true
}

func (d *decoder) skipDN() bool {
	n, ok := d.count(0)
	for ; ok && n > 0; n-- {
		var m int
		for m, ok = d.count(1); ok && m > 0; m-- {
			if _, ok = d.span(); ok {
				_, ok = d.span()
			}
		}
	}
	return ok
}

func (d *decoder) skipValue() bool {
	k, ok := d.byte()
	if !ok {
		return false
	}
	switch model.Kind(k) {
	case model.KindString:
		_, ok = d.span()
	case model.KindInt:
		_, ok = d.varint()
	case model.KindDN:
		ok = d.skipDN()
	case model.KindVector:
		var n int
		if n, ok = d.count(2); ok {
			d.i += 4 * n
		}
	default:
		ok = false
	}
	return ok
}

func (d *decoder) dn() model.DN {
	n, _ := d.uvarint()
	dn := make(model.DN, n)
	for i := range dn {
		m, _ := d.uvarint()
		rdn := make(model.RDN, m)
		for j := range rdn {
			attr, _ := d.span()
			val, _ := d.span()
			rdn[j] = model.AVA{Attr: string(attr), Value: string(val)}
		}
		dn[i] = rdn
	}
	return dn
}

func (d *decoder) value() model.Value {
	k, _ := d.byte()
	switch model.Kind(k) {
	case model.KindString:
		s, _ := d.span()
		return model.String(string(s))
	case model.KindInt:
		i, _ := d.varint()
		return model.Int(i)
	case model.KindDN:
		return model.DNValue(d.dn())
	default: // KindVector: skipValue admits no other kind
		n, _ := d.uvarint()
		vec := make([]float32, n)
		for i := range vec {
			vec[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.b[d.i:]))
			d.i += 4
		}
		return model.VectorValue(vec)
	}
}

// decodeInto parses b, which must hold exactly one record, into r,
// reusing r.Aux. The header is decoded; the entry is walked once to check
// its structure and kept as bytes. r.Key and the entry alias b.
func decodeInto(r *Record, b []byte) error {
	d := decoder{b: b}
	key, ok := d.span()
	if !ok {
		return corrupt("key")
	}
	r.Key = aliasString(key)
	if r.Label, ok = d.byte(); !ok {
		return corrupt("label")
	}
	if r.A, ok = d.varint(); !ok {
		return corrupt("annotation A")
	}
	if r.B, ok = d.varint(); !ok {
		return corrupt("annotation B")
	}
	naux, ok := d.count(0)
	if !ok {
		return corrupt("aux count")
	}
	r.Aux = r.Aux[:0]
	for ; naux > 0; naux-- {
		v, ok := d.varint()
		if !ok {
			return corrupt("aux")
		}
		r.Aux = append(r.Aux, v)
	}
	r.Entry, r.dn, r.pairs = nil, nil, nil
	switch has, ok := d.byte(); {
	case !ok || has > 1:
		return corrupt("entry flag")
	case has == 0:
		if d.left() != 0 {
			return corrupt("trailing bytes")
		}
		return nil
	}
	start := d.i
	if !d.skipDN() {
		return corrupt("entry DN")
	}
	dn := b[start:d.i:d.i]
	start = d.i
	n, ok := d.count(1)
	if !ok {
		return corrupt("pair count")
	}
	var prev []byte
	for ; n > 0; n-- {
		attr, ok := d.span()
		if !ok || !d.skipValue() {
			return corrupt("pair")
		}
		if bytes.Compare(attr, prev) < 0 {
			return corrupt("attribute order")
		}
		prev = attr
	}
	if d.left() != 0 {
		return corrupt("trailing bytes")
	}
	r.dn, r.pairs = dn, b[start:]
	return nil
}

// DecodeRecord parses b, which must hold exactly one record and nothing
// after it, without building the entry (see Record); the record aliases
// b. Anything else is ErrCorrupt.
func DecodeRecord(b []byte) (*Record, error) {
	r := &Record{}
	if err := decodeInto(r, b); err != nil {
		return nil, err
	}
	return r, nil
}

// FromEntry builds the canonical record for a directory entry: its key,
// no labels, zero annotations.
func FromEntry(e *model.Entry) *Record {
	return &Record{Key: e.Key(), Entry: e}
}
