// Package store binds the data model to the external-memory substrate:
// a disk-resident directory instance with the indexes Section 4.1 of
// "Querying Network Directories" assumes, and the atomic-query
// evaluation that feeds the algebraic operators of internal/engine.
//
// A Store is the only representation of a published directory
// generation (internal/core keeps no in-memory copy beside it), so each
// way entries get in — Build, ApplyOps, Reopen — checks them with
// model.ValidateEntry, keeps DNs unique and maintains the orphan count
// that tells a strict forest from a lenient one.
//
// Layout:
//
//   - a master list: every entry, serialized in reverse-DN key order.
//     Because an ancestor's key is a prefix of its descendants', the
//     subtree of any entry is one contiguous byte range of this list —
//     the sub scope is a single sequential scan;
//   - a DN B+tree: reverse key -> master stream offset;
//   - optionally, an attribute B+tree over composite (attr, value,
//     reverse-key) keys, plus, in memory, a suffix-array index over each
//     string attribute's distinct values for wildcard filters and the
//     catalog of value counts the access-path choice reads. Both are a
//     base that Build and Reopen make and later generations share, and
//     the little the writes since have added, folded into a new base
//     when it reaches an eighth of it (strindex.SuffixIndex.With,
//     attrStats) — a write copies neither. The suffix index keeps the
//     values of removed entries: such a value maps to an empty posting
//     range and a zero count, and the next Reopen or rebuild sheds it;
//   - after the first entry-level mutation (ApplyOps), an overlay
//     B+tree of added records and tombstones masking the master list.
//
// All three trees are internal/btree trees. A mutated generation opens
// them over a pager.Disk.Fork of its parent's disk, which is the only
// copy-on-write mechanism: the fork copies a page the first time a tree
// writes it.
//
// Atomic queries evaluate to plist lists sorted by reverse-DN key, the
// invariant every downstream operator relies on (Section 4.2).
package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/strindex"
	"repro/internal/vindex"
)

// Options configures Build.
type Options struct {
	// AttrIndex builds the attribute B+tree and the string indexes.
	// Without it every atomic query is a scope scan.
	AttrIndex bool
}

// poolPages is the buffer-pool capacity of each B+tree.
const poolPages = 64

// Store is a disk-resident directory instance.
type Store struct {
	disk    *pager.Disk
	schema  *model.Schema
	master  *plist.List
	dn      *btree.Tree
	attr    *btree.Tree // nil without AttrIndex
	suffix  map[string]*strindex.SuffixIndex
	vecs    map[string]*vindex.Index // per vector attribute; nil without AttrIndex
	stats   *catalog                 // nil without AttrIndex
	over    *btree.Tree              // entry overlay; nil until the first incremental mutation
	count   int
	orphans int // see Orphans; not serialized, Reopen recounts it
}

// gate admits entries in reverse-DN key order, as Build and Reopen meet
// them: each must be a valid entry of the schema under a key above the
// one before it (so no DN occurs twice). It counts them and the orphans
// among them: an ancestor's key is a prefix of its descendants' and
// sorts first, so the present ancestors of the current key are a stack
// whose top, once non-prefixes are popped, is the nearest one.
type gate struct {
	schema         *model.Schema
	stack          []string
	count, orphans int
}

func (g *gate) admit(key string, e *model.Entry) error {
	if e == nil || e.Key() != key {
		return fmt.Errorf("store: record %q carries no entry of that key", key)
	}
	// The stack keeps the key, so it takes the entry's: key may be a list
	// record's, which its reader reuses.
	key = e.Key()
	if n := len(g.stack); n > 0 && key <= g.stack[n-1] { // the top is the key before
		return fmt.Errorf("store: entry %s repeats or precedes the key before it", e.DN())
	}
	if err := model.ValidateEntry(g.schema, e); err != nil {
		return err
	}
	for len(g.stack) > 0 && !model.KeyIsAncestor(g.stack[len(g.stack)-1], key) {
		g.stack = g.stack[:len(g.stack)-1]
	}
	if model.KeyDepth(key) > 1 && (len(g.stack) == 0 || !model.KeyIsParent(g.stack[len(g.stack)-1], key)) {
		g.orphans++
	}
	g.stack = append(g.stack, key)
	g.count++
	return nil
}

// stringValues collects the distinct string values seen per attribute:
// the input of the suffix-array indexes.
type stringValues map[string]map[string]bool

func (sv stringValues) add(attr, v string) {
	set := sv[attr]
	if set == nil {
		set = make(map[string]bool)
		sv[attr] = set
	}
	set[v] = true
}

// indexStrings brings the suffix-array indexes up to date with sv: an
// attribute without one gets an index sorted over its values (Build,
// Reopen), one that has it an index grown by them (ApplyOps — see
// strindex.SuffixIndex.With; the index before stays as it was, for the
// generation that owns it). Values are never dropped here — a stale
// value makes a wildcard scan an empty posting range, which is harmless;
// Reopen and the next full rebuild shed them.
func (s *Store) indexStrings(sv stringValues) {
	for attr, set := range sv {
		vals := make([]string, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		if old := s.suffix[attr]; old != nil {
			s.suffix[attr] = old.With(vals)
		} else {
			s.suffix[attr] = strindex.BuildSuffix(vals)
		}
	}
}

// attrItems gathers Build's attribute-index items, every (composite
// key, master offset), in one growing buffer, so that the attribute tree
// is loaded from one sort instead of a B+tree insert per value.
type attrItems struct {
	buf   []byte
	items []attrItem
}

type attrItem struct {
	start, end uint32 // the composite key, buf[start:end]
	off        int64
}

func (a *attrItems) add(attr string, v model.Value, revKey string, off int64) {
	start := len(a.buf)
	a.buf = compositeKey(a.buf, attr, v, revKey)
	a.items = append(a.items, attrItem{uint32(start), uint32(len(a.buf)), off})
}

func (a *attrItems) key(it attrItem) []byte { return a.buf[it.start:it.end] }

// load sorts the items and bulk-loads them onto disk. A key met twice
// is an entry holding one value twice: it is indexed once.
func (a *attrItems) load(disk *pager.Disk) (*btree.Tree, error) {
	slices.SortFunc(a.items, func(x, y attrItem) int { return bytes.Compare(a.key(x), a.key(y)) })
	l := btree.NewLoader(disk)
	var val []byte
	for i, it := range a.items {
		if i > 0 && bytes.Equal(a.key(it), a.key(a.items[i-1])) {
			continue
		}
		val = binary.LittleEndian.AppendUint64(val[:0], uint64(it.off))
		if err := l.Add(a.key(it), val); err != nil {
			return nil, err
		}
	}
	return l.Finish(poolPages)
}

// Build writes the instance to disk and constructs the indexes,
// checking every entry against the schema (model.ValidateEntry) on the
// way in. Both B+trees are bulk-loaded (btree.Loader): the DN tree
// straight from the gate's ascending stream, the attribute tree from
// its items sorted once at the end.
func Build(disk *pager.Disk, in *model.Instance, opts Options) (*Store, error) {
	s := &Store{disk: disk, schema: in.Schema()}
	dn := btree.NewLoader(disk)
	var attrs *attrItems // nil without AttrIndex
	if opts.AttrIndex {
		attrs = &attrItems{}
		s.suffix = make(map[string]*strindex.SuffixIndex)
		s.stats = newCatalog()
	}

	w := plist.NewWriter(disk)
	strVals := make(stringValues)
	vb := make(map[string]*vindex.Builder) // attr -> vector-index builder
	var entryVecs map[string][][]float32   // per-entry vector values, reused
	var keyBuf, offBuf []byte
	admitted := gate{schema: s.schema}
	for _, e := range in.Entries() {
		key := e.Key()
		if err := admitted.admit(key, e); err != nil {
			return nil, err
		}
		off := w.Offset()
		if err := w.Append(plist.FromEntry(e)); err != nil {
			return nil, err
		}
		keyBuf = append(keyBuf[:0], key...)
		offBuf = binary.LittleEndian.AppendUint64(offBuf[:0], uint64(off))
		if err := dn.Add(keyBuf, offBuf); err != nil {
			return nil, err
		}
		if attrs == nil {
			continue
		}
		for k := range entryVecs {
			delete(entryVecs, k)
		}
		for _, av := range e.Pairs() {
			if av.Value.Kind() == model.KindVector {
				// Vectors are indexed by the flat vector index, not the
				// composite-key B+tree (there is no useful total order to
				// range-scan an embedding by).
				t, ok := s.schema.AttrType(av.Attr)
				if !ok {
					continue
				}
				if _, isVec := model.VectorDim(t); !isVec {
					continue
				}
				if entryVecs == nil {
					entryVecs = make(map[string][][]float32)
				}
				entryVecs[av.Attr] = append(entryVecs[av.Attr], av.Value.Vec())
				continue
			}
			attrs.add(av.Attr, av.Value, key, off)
			s.stats.observe(av.Attr, av.Value)
			if av.Value.Kind() == model.KindString {
				strVals.add(av.Attr, av.Value.Str())
			}
		}
		for attr, vecs := range entryVecs {
			b := vb[attr]
			if b == nil {
				t, _ := s.schema.AttrType(attr)
				dim, _ := model.VectorDim(t)
				b = vindex.NewBuilder(disk, attr, dim)
				vb[attr] = b
			}
			if err := b.Add(e.Key(), off, vecs); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if s.master, err = w.Close(); err != nil {
		return nil, err
	}
	if s.dn, err = dn.Finish(poolPages); err != nil {
		return nil, err
	}
	if attrs != nil {
		if s.attr, err = attrs.load(disk); err != nil {
			return nil, err
		}
		s.vecs = make(map[string]*vindex.Index, len(vb))
		for attr, b := range vb {
			ix, err := b.Close()
			if err != nil {
				return nil, err
			}
			s.vecs[attr] = ix
		}
		s.stats.finish(s.master.Size(), s.master.Count())
		s.indexStrings(strVals)
	}
	s.count, s.orphans = admitted.count, admitted.orphans
	return s, nil
}

// Disk returns the underlying device (for I/O statistics and for
// allocating operator intermediates alongside the data).
func (s *Store) Disk() *pager.Disk { return s.disk }

// Schema returns the instance's schema.
func (s *Store) Schema() *model.Schema { return s.schema }

// Count returns the number of entries.
func (s *Store) Count() int { return s.count }

// Orphans returns the number of entries below the top level whose
// parent entry is absent — legal in the model, a forest; 0 is the strict
// forest LDAP servers enforce and the planner's ac/dc collapse needs.
func (s *Store) Orphans() int { return s.orphans }

// Instance materializes the live entries as a fresh in-memory instance
// that shares nothing with the store — what a full rebuild starts from.
func (s *Store) Instance() (*model.Instance, error) {
	in := model.NewInstance(s.schema)
	return in, s.forEachLiveEntry(func(rec *plist.Record) error {
		e, err := rec.Materialize()
		if err != nil {
			return err
		}
		return in.Add(e)
	})
}

// MasterPages returns the size of the master list in pages — the |I|/B
// of the whole instance.
func (s *Store) MasterPages() int { return s.master.Pages() }

// PageCounts is what the store's device is made of: the pages each of
// its structures occupies.
type PageCounts struct {
	Master, DN, Attr, Overlay, Vectors int
}

// PageCounts counts the pages of each structure: the master list and
// the vector indexes from their page lists, the three B+trees by a walk
// of the disk image (btree.Tree.Pages; uncharged, and outside the trees'
// buffer pools). On a freshly built store they sum to the disk's
// NumPages.
func (s *Store) PageCounts() (PageCounts, error) {
	pc := PageCounts{Master: s.master.Pages()}
	for _, ix := range s.vecs {
		pc.Vectors += ix.Pages()
	}
	for _, t := range []struct {
		tree *btree.Tree
		n    *int
	}{{s.dn, &pc.DN}, {s.attr, &pc.Attr}, {s.over, &pc.Overlay}} {
		if t.tree == nil {
			continue
		}
		var err error
		if *t.n, err = t.tree.Pages(nil); err != nil {
			return PageCounts{}, err
		}
	}
	return pc, nil
}

// Indexed reports whether the attribute index was built.
func (s *Store) Indexed() bool { return s.attr != nil }

// VectorIndex returns the flat vector index for attr, or nil when the
// attribute is not vector-typed or the store was built without indexes.
func (s *Store) VectorIndex(attr string) *vindex.Index {
	return s.vecs[model.NormalizeAttr(attr)]
}

// ErrNoEntry is returned by Get for absent DNs.
var ErrNoEntry = errors.New("store: no such entry")

// Get fetches a single entry by DN.
func (s *Store) Get(dn model.DN) (*model.Entry, error) {
	v, err := s.dn.Get([]byte(dn.Key()))
	if errors.Is(err, btree.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNoEntry, dn)
	}
	if err != nil {
		return nil, err
	}
	var rec *plist.Record
	if off := decodeOffset(v); off >= 0 {
		rr := s.master.RandomReader()
		if rec, _, err = rr.ReadAt(off); err != nil {
			return nil, err
		}
	} else if rec, err = s.overlayGet(dn.Key(), nil); err != nil {
		return nil, err
	}
	return rec.Materialize()
}

func (s *Store) masterBytes() int64 { return s.master.Size() }

// seekOffset returns the master stream offset of the first entry whose
// key is >= lo, or (0, false) if none.
func (s *Store) seekOffset(lo string) (int64, bool, error) {
	return s.seekOffsetMetered(lo, nil)
}

// seekOffsetMetered is seekOffset with the DN-index probe charged to the
// per-query meter (nil = uncharged). Overlay locators are skipped: the
// result is the stream offset of the first *master-resident* entry at
// or after lo (overlay entries in between come from the merged scan).
func (s *Store) seekOffsetMetered(lo string, m *pager.Meter) (int64, bool, error) {
	var off int64
	found := false
	err := s.dn.ScanMetered([]byte(lo), nil, m, func(_, v []byte) bool {
		if o := decodeOffset(v); o >= 0 {
			off = o
			found = true
			return false
		}
		return true
	})
	return off, found, err
}
