package model

import (
	"sort"
	"strings"
)

// AV is one (attribute, value) pair held by an entry. Attribute names are
// stored normalized.
type AV struct {
	Attr  string
	Value Value
}

// Entry is a directory entry r: its distinguished name dn(r), and val(r),
// a multiset of (attribute, value) pairs. Per Definition 3.2, class(r) is
// derivable from val(r) as the values of the objectClass attribute, and
// rdn(r) ⊆ val(r).
//
// Entries are value-like: the evaluation engine copies them freely.
type Entry struct {
	dn  DN
	key string // cached reverse-DN key
	avs []AV   // sorted by (attr, value) for determinism
}

// Attrs is read access to val(r) by attribute name: all that the atomic
// filters, the aggregate folds and the embedded-reference joins ask of an
// entry. *Entry implements it, and so does an encoded list record
// (plist.Record), which answers from its bytes without building the entry.
type Attrs interface {
	// Values returns all values of attribute a, in stored order.
	Values(a string) []Value
	// Has reports whether at least one value is specified for a.
	Has(a string) bool
}

// NewEntry creates an entry with the given DN and no attribute values.
func NewEntry(dn DN) *Entry {
	return &Entry{dn: dn, key: dn.Key()}
}

// EntryOf assembles an entry from parts a decoder already holds: the DN,
// its reverse-DN key (dn.Key(), not recomputed here) and val(r) with
// attribute names normalized and in attribute order, as Pairs returns
// them. Nothing is checked or copied; the entry owns avs afterwards.
func EntryOf(dn DN, key string, avs []AV) *Entry {
	return &Entry{dn: dn, key: key, avs: avs}
}

// DN returns dn(r).
func (e *Entry) DN() DN { return e.dn }

// Key returns the cached reverse-DN sort key of dn(r).
func (e *Entry) Key() string { return e.key }

// Add appends the pair (attr, v) to val(r). Duplicate pairs are kept:
// val(r) is a multiset and an attribute may have multiple values
// (Section 3.2, footnote 2).
func (e *Entry) Add(attr string, v Value) *Entry {
	attr = NormalizeAttr(attr)
	i := sort.Search(len(e.avs), func(i int) bool {
		if e.avs[i].Attr != attr {
			return e.avs[i].Attr > attr
		}
		return e.avs[i].Value.Compare(v) >= 0
	})
	e.avs = append(e.avs, AV{})
	copy(e.avs[i+1:], e.avs[i:])
	e.avs[i] = AV{Attr: attr, Value: v}
	return e
}

// AddClass records membership in class c by adding an (objectClass, c)
// pair, maintaining condition (c)2 of Definition 3.2.
func (e *Entry) AddClass(c string) *Entry {
	return e.Add(ObjectClass, String(NormalizeAttr(c)))
}

// Pairs returns val(r) in sorted order. The slice is shared; callers must
// not mutate it.
func (e *Entry) Pairs() []AV { return e.avs }

// Values returns all values of attribute a, in sorted order.
func (e *Entry) Values(a string) []Value {
	a = NormalizeAttr(a)
	lo := sort.Search(len(e.avs), func(i int) bool { return e.avs[i].Attr >= a })
	hi := lo
	for hi < len(e.avs) && e.avs[hi].Attr == a {
		hi++
	}
	if lo == hi {
		return nil
	}
	out := make([]Value, hi-lo)
	for i := lo; i < hi; i++ {
		out[i-lo] = e.avs[i].Value
	}
	return out
}

// First returns the first (smallest) value of attribute a, if any.
func (e *Entry) First(a string) (Value, bool) {
	a = NormalizeAttr(a)
	i := sort.Search(len(e.avs), func(i int) bool { return e.avs[i].Attr >= a })
	if i < len(e.avs) && e.avs[i].Attr == a {
		return e.avs[i].Value, true
	}
	return Value{}, false
}

// Has reports whether the entry specifies at least one value for a.
func (e *Entry) Has(a string) bool {
	_, ok := e.First(a)
	return ok
}

// HasPair reports whether (a, v) ∈ val(r).
func (e *Entry) HasPair(a string, v Value) bool {
	for _, got := range e.Values(a) {
		if got.Equal(v) {
			return true
		}
	}
	return false
}

// Classes returns class(r): the values of objectClass, sorted.
func (e *Entry) Classes() []string {
	vals := e.Values(ObjectClass)
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.Str()
	}
	return out
}

// HasClass reports whether c ∈ class(r).
func (e *Entry) HasClass(c string) bool {
	return e.HasPair(ObjectClass, String(NormalizeAttr(c)))
}

// Clone returns a deep-enough copy: the AV slice is copied; Values are
// immutable by convention.
func (e *Entry) Clone() *Entry {
	avs := make([]AV, len(e.avs))
	copy(avs, e.avs)
	return &Entry{dn: e.dn, key: e.key, avs: avs}
}

// Equal reports whether two entries have the same DN and the same
// multiset of pairs.
func (e *Entry) Equal(f *Entry) bool {
	if !e.dn.Equal(f.dn) || len(e.avs) != len(f.avs) {
		return false
	}
	for i := range e.avs {
		if e.avs[i].Attr != f.avs[i].Attr || !e.avs[i].Value.Equal(f.avs[i].Value) {
			return false
		}
	}
	return true
}

// String renders the entry in an LDIF-like block: the DN line followed by
// one "attr: value" line per pair.
func (e *Entry) String() string {
	var b strings.Builder
	b.WriteString("dn: ")
	b.WriteString(e.dn.String())
	for _, av := range e.avs {
		b.WriteByte('\n')
		b.WriteString(av.Attr)
		b.WriteString(": ")
		b.WriteString(av.Value.String())
	}
	return b.String()
}
