package model

import (
	"errors"
	"fmt"
	"sort"
)

// Instance is an in-memory directory instance I = (R, class, val, dn) of
// a schema S (Definition 3.2). Entries are kept sorted by reverse-DN key,
// making the instance directly consumable by the sorted-list algorithms.
//
// Instance is the reference, fully in-memory representation; the
// disk-resident representation used for I/O-counted evaluation lives in
// internal/store.
type Instance struct {
	schema  *Schema
	entries []*Entry          // sorted by Key()
	byKey   map[string]*Entry // dn key -> entry (dn is a key: Def 3.2(d)(i))
}

// NewInstance returns an empty instance of the given schema.
func NewInstance(schema *Schema) *Instance {
	return &Instance{schema: schema, byKey: make(map[string]*Entry)}
}

// Schema returns the instance's schema.
func (in *Instance) Schema() *Schema { return in.schema }

// Len returns |R|.
func (in *Instance) Len() int { return len(in.entries) }

// Instance-level violations.
var (
	ErrDuplicateDN = errors.New("model: duplicate distinguished name")
	ErrInvalid     = errors.New("model: invalid entry")
)

// Add inserts entry e after validating it against the schema
// (ValidateEntry) and the key constraint dn(r) ≠ dn(r') (Definition
// 3.2(d)(i)).
func (in *Instance) Add(e *Entry) error {
	if err := ValidateEntry(in.schema, e); err != nil {
		return err
	}
	if _, dup := in.byKey[e.Key()]; dup {
		return fmt.Errorf("%w: %s", ErrDuplicateDN, e.DN())
	}
	i := sort.Search(len(in.entries), func(i int) bool { return in.entries[i].Key() >= e.Key() })
	in.entries = append(in.entries, nil)
	copy(in.entries[i+1:], in.entries[i:])
	in.entries[i] = e
	in.byKey[e.Key()] = e
	return nil
}

// MustAdd panics if Add fails; convenience for statically-known data.
func (in *Instance) MustAdd(e *Entry) {
	if err := in.Add(e); err != nil {
		panic(err)
	}
}

// Get returns the entry with the given DN, if present.
func (in *Instance) Get(dn DN) (*Entry, bool) {
	e, ok := in.byKey[dn.Key()]
	return e, ok
}

// GetKey returns the entry with the given reverse key, if present.
func (in *Instance) GetKey(key string) (*Entry, bool) {
	e, ok := in.byKey[key]
	return e, ok
}

// Remove deletes the entry with the given DN. It does not cascade:
// removing an interior entry leaves its descendants in place (the model
// is a forest, so orphaned subtrees remain well-formed roots of the DIF).
func (in *Instance) Remove(dn DN) bool {
	key := dn.Key()
	if _, ok := in.byKey[key]; !ok {
		return false
	}
	delete(in.byKey, key)
	i := sort.Search(len(in.entries), func(i int) bool { return in.entries[i].Key() >= key })
	in.entries = append(in.entries[:i], in.entries[i+1:]...)
	return true
}

// Entries returns all entries in reverse-DN key order. The slice is
// shared; callers must not mutate it.
func (in *Instance) Entries() []*Entry { return in.entries }

// Clone returns a deep copy of the instance: every entry is cloned (see
// Entry.Clone — DNs are shared, attribute-value slices are copied), so
// mutations of the copy are invisible to the original. Reference
// oracles use it to apply a write sequence all-or-nothing
// (benchmark/dirload, the core write-model test); core.Directory holds
// no instance to copy.
func (in *Instance) Clone() *Instance {
	out := &Instance{
		schema:  in.schema,
		entries: make([]*Entry, len(in.entries)),
		byKey:   make(map[string]*Entry, len(in.byKey)),
	}
	for i, e := range in.entries {
		c := e.Clone()
		out.entries[i] = c
		out.byKey[c.Key()] = c
	}
	return out
}

// Range calls fn for each entry whose key is in [lo, hi), in key order,
// stopping early if fn returns false. With lo = dn.Key() and
// hi = lo + 0xFF this enumerates exactly the subtree rooted at dn — the
// sub scope of Section 4.1 as one contiguous range.
func (in *Instance) Range(lo, hi string, fn func(*Entry) bool) {
	i := sort.Search(len(in.entries), func(i int) bool { return in.entries[i].Key() >= lo })
	for ; i < len(in.entries); i++ {
		if hi != "" && in.entries[i].Key() >= hi {
			return
		}
		if !fn(in.entries[i]) {
			return
		}
	}
}

// SubtreeHigh returns the exclusive upper bound of the key range covering
// the subtree rooted at the entry with reverse key k: every descendant
// key extends k, and no other key has k as a prefix, so k + 0xFF bounds
// the range (0xFF exceeds every byte emitted into keys).
func SubtreeHigh(k string) string { return k + "\xff" }

// Children returns the child entries of dn present in the instance, in
// key order.
func (in *Instance) Children(dn DN) []*Entry {
	k := dn.Key()
	var out []*Entry
	in.Range(k, SubtreeHigh(k), func(e *Entry) bool {
		if KeyIsParent(k, e.Key()) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Descendants returns the proper descendants of dn present in the
// instance, in key order.
func (in *Instance) Descendants(dn DN) []*Entry {
	k := dn.Key()
	var out []*Entry
	in.Range(k, SubtreeHigh(k), func(e *Entry) bool {
		if KeyIsAncestor(k, e.Key()) {
			out = append(out, e)
		}
		return true
	})
	return out
}

// Roots returns the entries that have no parent present in the instance —
// the roots of the directory information forest.
func (in *Instance) Roots() []*Entry {
	var out []*Entry
	for _, e := range in.entries {
		if len(e.DN()) == 1 {
			out = append(out, e)
			continue
		}
		if _, ok := in.byKey[e.DN().Parent().Key()]; !ok {
			out = append(out, e)
		}
	}
	return out
}

// ValidateEntry checks the conditions of Definition 3.2 for a single
// entry:
//
//	(b)   class(r) is a non-empty subset of C;
//	(c)1  every pair (a, v) has a allowed by at least one of r's classes
//	      and v in dom(tau(a));
//	(c)2  (objectClass, c) in val(r) iff c in class(r) — holds by
//	      construction since classes are stored as objectClass values,
//	      so this reduces to every objectClass value naming a schema class;
//	(d)   dn(r) is non-empty with non-empty RDNs, and rdn(r) ⊆ val(r).
func ValidateEntry(s *Schema, e *Entry) error {
	classes := e.Classes()
	if len(classes) == 0 {
		return fmt.Errorf("%w: %s: entry belongs to no class", ErrInvalid, e.DN())
	}
	for _, c := range classes {
		if !s.HasClass(c) {
			return fmt.Errorf("%w: %s: unknown class %q", ErrInvalid, e.DN(), c)
		}
	}
	for _, av := range e.Pairs() {
		t, ok := s.AttrType(av.Attr)
		if !ok {
			return fmt.Errorf("%w: %s: unknown attribute %q", ErrInvalid, e.DN(), av.Attr)
		}
		if TypeKind(t) != av.Value.Kind() {
			return fmt.Errorf("%w: %s: attribute %q has type %s but value kind %s",
				ErrInvalid, e.DN(), av.Attr, t, av.Value.Kind())
		}
		allowed := false
		for _, c := range classes {
			if s.Allowed(c, av.Attr) {
				allowed = true
				break
			}
		}
		if !allowed {
			return fmt.Errorf("%w: %s: attribute %q not allowed by any of classes %v",
				ErrInvalid, e.DN(), av.Attr, classes)
		}
	}
	dn := e.DN()
	if len(dn) == 0 {
		return fmt.Errorf("%w: entry has empty DN", ErrInvalid)
	}
	for _, rdn := range dn {
		if len(rdn) == 0 {
			return fmt.Errorf("%w: %s: empty RDN", ErrInvalid, e.DN())
		}
	}
	for _, ava := range dn.RDN() {
		t, ok := s.AttrType(ava.Attr)
		if !ok {
			return fmt.Errorf("%w: %s: RDN uses unknown attribute %q", ErrInvalid, e.DN(), ava.Attr)
		}
		v, err := ParseValue(t, ava.Value)
		if err != nil {
			return fmt.Errorf("%w: %s: RDN value: %v", ErrInvalid, e.DN(), err)
		}
		if !e.HasPair(ava.Attr, v) {
			return fmt.Errorf("%w: %s: rdn pair %s=%s not in val(r)", ErrInvalid, e.DN(), ava.Attr, ava.Value)
		}
	}
	return nil
}

// Validate checks the whole instance: every entry valid, DNs unique
// (guaranteed by construction), and — optionally strict — every non-root
// entry's parent present. The paper's model is a forest, so missing
// parents are legal; Strict mode is what deployed LDAP servers enforce.
func (in *Instance) Validate(strict bool) error {
	for _, e := range in.entries {
		if err := ValidateEntry(in.schema, e); err != nil {
			return err
		}
		if strict && len(e.DN()) > 1 {
			if _, ok := in.byKey[e.DN().Parent().Key()]; !ok {
				return fmt.Errorf("%w: %s: parent missing (strict forest)", ErrInvalid, e.DN())
			}
		}
	}
	return nil
}

// NewEntryFromDN builds an entry whose val(r) already contains the pairs
// of its RDN (typed per the schema), satisfying rdn(r) ⊆ val(r). Classes
// and further attributes are added by the caller.
func NewEntryFromDN(s *Schema, dn DN) (*Entry, error) {
	e := NewEntry(dn)
	for _, ava := range dn.RDN() {
		t, ok := s.AttrType(ava.Attr)
		if !ok {
			return nil, fmt.Errorf("%w: RDN attribute %q not in schema", ErrSchema, ava.Attr)
		}
		v, err := ParseValue(t, ava.Value)
		if err != nil {
			return nil, err
		}
		e.Add(ava.Attr, v)
	}
	return e, nil
}
