package store

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/strindex"
	"repro/internal/vindex"
)

// The entry overlay: a B+tree (internal/btree) keyed by reverse-DN key
// that masks the immutable master list. An entry-level mutation inserts
// a record (adds/updates) or a tombstone (deletes) into the overlay and
// adjusts the DN/attribute B+trees, all three in place on a forked disk
// (pager.Disk.Fork copies each page on its first write) — O(log N) page
// writes — instead of rewriting the master.
// Index locators distinguish the two homes: a non-negative value is a
// master stream offset, overlayLoc marks "fetch from the overlay by
// reverse-DN key". Scans merge the master range with the overlay range
// (both are in reverse-DN key order; the overlay wins, tombstones
// mask), so every access path sees one consistent logical instance.

// Overlay value tags: first byte of an overlay tree value.
const (
	ovTombstone byte = 0 // key deleted from the master view
	ovRecord    byte = 1 // encoded plist record follows
)

// overlayLoc is the index-locator sentinel for overlay-resident entries.
const overlayLoc = int64(-1)

// ErrNeedsRebuild reports a mutation outside the incremental fast
// path's envelope (vector-indexed values, oversized records): the
// caller must fall back to a full store rebuild.
var ErrNeedsRebuild = errors.New("store: mutation needs full rebuild")

// EntryOp is one entry-level mutation: exactly one of Add or Remove is
// set.
type EntryOp struct {
	// Add inserts this entry (its DN must not exist).
	Add *model.Entry
	// Remove deletes this DN (which must exist) when Add is nil.
	Remove model.DN
}

// ApplyOps applies entry-level mutations incrementally: the caller
// forks the store's disk (pager.Disk.Fork) and receives a new Store
// over the fork sharing every untouched page with this one. Ops apply
// in order, each checked against the state the ones before it left: an
// add must pass model.ValidateEntry and name an absent DN
// (model.ErrDuplicateDN), a remove must name a present one (ErrNoEntry).
// On any error — including ErrNeedsRebuild for mutations outside the
// fast path — the fork is simply discarded; this store is never modified.
// The trees write every page they change straight to the fork, so the
// returned store is ready to publish and to checkpoint (the fork's Dirty
// set is the page delta).
func (s *Store) ApplyOps(fork *pager.Disk, ops []EntryOp) (*Store, error) {
	ns := &Store{
		disk:    fork,
		schema:  s.schema,
		master:  plist.Restore(fork, s.master.PageIDs(), s.master.Size(), s.master.Count()),
		dn:      btree.Open(fork, s.dn.Root(), s.dn.Len()),
		count:   s.count,
		orphans: s.orphans,
	}
	if s.attr != nil {
		ns.attr = btree.Open(fork, s.attr.Root(), s.attr.Len())
		ns.stats = s.stats.clone()
		ns.suffix = make(map[string]*strindex.SuffixIndex, len(s.suffix))
		for a, sx := range s.suffix {
			ns.suffix[a] = sx
		}
		if len(s.vecs) > 0 {
			ns.vecs = make(map[string]*vindex.Index, len(s.vecs))
			for a, ix := range s.vecs {
				rx, err := vindex.Restore(fork, ix.Manifest())
				if err != nil {
					return nil, err
				}
				ns.vecs[a] = rx
			}
		}
	}
	if s.over != nil {
		ns.over = btree.Open(fork, s.over.Root(), s.over.Len())
	} else {
		var err error
		if ns.over, err = btree.New(fork); err != nil {
			return nil, err
		}
	}

	newStr := make(stringValues)
	for i := range ops {
		op := &ops[i]
		var err error
		if op.Add != nil {
			err = ns.applyAdd(op.Add, newStr)
		} else {
			err = ns.applyRemove(op.Remove)
		}
		if err != nil {
			return nil, err
		}
	}
	ns.indexStrings(newStr)
	return ns, nil
}

// entryVectorIndexed reports whether the entry carries a value the flat
// vector index would cover — the shape the incremental path gates to a
// full rebuild, since vindex posting lists are bulk-built.
func (s *Store) entryVectorIndexed(e *model.Entry) bool {
	for _, av := range e.Pairs() {
		if av.Value.Kind() != model.KindVector {
			continue
		}
		if t, ok := s.schema.AttrType(av.Attr); ok {
			if _, isVec := model.VectorDim(t); isVec {
				return true
			}
		}
	}
	return false
}

// orphanDelta returns by how much adding the entry dn raises the orphan
// count (removing it lowers it by as much): +1 if dn lies below the top
// level and its parent is absent, -1 for each present direct child. The
// children come from a key-only walk of dn's subtree range in the DN
// tree — one descent, over at once under a leaf.
func (s *Store) orphanDelta(dn model.DN) (int, error) {
	delta := 0
	if len(dn) > 1 {
		if _, err := s.dn.Get([]byte(dn.Parent().Key())); errors.Is(err, btree.ErrNotFound) {
			delta = 1
		} else if err != nil {
			return 0, err
		}
	}
	key := dn.Key()
	err := s.dn.Scan([]byte(key), []byte(model.SubtreeHigh(key)), func(k, _ []byte) bool {
		if model.KeyIsParent(key, string(k)) {
			delta--
		}
		return true
	})
	return delta, err
}

func (s *Store) applyAdd(e *model.Entry, newStr stringValues) error {
	if err := model.ValidateEntry(s.schema, e); err != nil {
		return err
	}
	if s.entryVectorIndexed(e) {
		return fmt.Errorf("%w: entry %s has vector-indexed values", ErrNeedsRebuild, e.DN())
	}
	key := e.Key()
	if _, err := s.dn.Get([]byte(key)); err == nil {
		return fmt.Errorf("store: %w: %s", model.ErrDuplicateDN, e.DN())
	} else if !errors.Is(err, btree.ErrNotFound) {
		return err
	}
	raw := plist.AppendRecord([]byte{ovRecord}, plist.FromEntry(e))
	if len(key)+len(raw) > s.over.MaxItem() {
		return fmt.Errorf("%w: entry %s record exceeds overlay item limit", ErrNeedsRebuild, e.DN())
	}
	if err := s.over.Insert([]byte(key), raw); err != nil {
		return err
	}
	if err := s.dn.Insert([]byte(key), offsetValue(overlayLoc)); err != nil {
		return err
	}
	if s.attr != nil {
		for _, av := range e.Pairs() {
			if av.Value.Kind() == model.KindVector {
				continue // non-schema vectors are unindexed, like Build
			}
			if err := s.attr.Insert(compositeKey(nil, av.Attr, av.Value, key), offsetValue(overlayLoc)); err != nil {
				return err
			}
			// A value with postings is in the suffix index already.
			if s.stats.observeSorted(av.Attr, av.Value) && av.Value.Kind() == model.KindString {
				newStr.add(av.Attr, av.Value.Str())
			}
		}
	}
	delta, err := s.orphanDelta(e.DN())
	s.count++
	s.orphans += delta
	return err
}

func (s *Store) applyRemove(dn model.DN) error {
	key := dn.Key()
	v, err := s.dn.Get([]byte(key))
	if errors.Is(err, btree.ErrNotFound) {
		return fmt.Errorf("%w: %s", ErrNoEntry, dn)
	}
	if err != nil {
		return err
	}
	var rec *plist.Record
	if off := decodeOffset(v); off >= 0 {
		if rec, _, err = s.master.RandomReader().ReadAt(off); err != nil {
			return err
		}
	} else if rec, err = s.overlayGet(key, nil); err != nil {
		return err
	}
	// Removal is checked against, and unindexes, the whole entry.
	e, err := rec.Materialize()
	if err != nil {
		return err
	}
	if s.entryVectorIndexed(e) {
		return fmt.Errorf("%w: entry %s has vector-indexed values", ErrNeedsRebuild, dn)
	}
	if err := s.dn.Delete([]byte(key)); err != nil {
		return err
	}
	if s.attr != nil {
		pairs := e.Pairs()
		for i, av := range pairs {
			if av.Value.Kind() == model.KindVector {
				continue
			}
			s.stats.unobserve(av.Attr, av.Value)
			if i > 0 && pairs[i-1].Attr == av.Attr && pairs[i-1].Value.Equal(av.Value) {
				continue // a value held twice has one posting (attrItems.load)
			}
			if err := s.attr.Delete(compositeKey(nil, av.Attr, av.Value, key)); err != nil {
				return err
			}
		}
	}
	// Always tombstone: the key may shadow a master record (including
	// through an earlier delete+add cycle), and a tombstone over a key
	// the master never held is skipped harmlessly by the merge.
	if err := s.over.Insert([]byte(key), []byte{ovTombstone}); err != nil {
		return err
	}
	delta, err := s.orphanDelta(dn) // removal does not cascade: children stay, orphaned
	s.count--
	s.orphans -= delta
	return err
}

// overlayGet fetches the live overlay record stored under key, its entry
// still encoded (plist.Record). The record aliases the value Get copied
// out of the leaf, which is this call's own.
func (s *Store) overlayGet(key string, m *pager.Meter) (*plist.Record, error) {
	if s.over == nil {
		return nil, fmt.Errorf("store: overlay record %q missing (no overlay)", key)
	}
	v, err := s.over.GetMetered([]byte(key), m)
	if err != nil && !errors.Is(err, btree.ErrNotFound) {
		return nil, err
	}
	if len(v) == 0 || v[0] != ovRecord {
		return nil, fmt.Errorf("store: overlay record %q missing", key)
	}
	return plist.DecodeRecord(v[1:])
}

// fetchAt reads the record behind an index locator: a master stream
// offset, or the overlay record under key when the locator is
// overlayLoc. A master record is rr's, valid until its next ReadAt.
func (env *evalEnv) fetchAt(rr *plist.RandomReader, key string, off int64) (*plist.Record, error) {
	if off >= 0 {
		rec, _, err := rr.ReadAt(off)
		return rec, err
	}
	return env.s.overlayGet(key, env.m)
}

// mergedIter streams the live entries of one key range: the master
// stream merged with the overlay in reverse-DN key order. The overlay
// wins equal keys (an updated entry masks its master image) and
// tombstones suppress master records. Offsets are master stream
// positions, overlayLoc for overlay-resident records.
type mergedIter struct {
	hi       string // exclusive upper bound; "" = unbounded
	nextBase func() (*plist.Record, int64, error)
	ov       btree.Iter // the zero Iter when there is no overlay

	baseRec     *plist.Record
	baseOff     int64
	basePending bool
}

func (mi *mergedIter) pastHi(key string) bool { return mi.hi != "" && key >= mi.hi }

// Next returns the next live record, or nil at the end of the range. The
// record is valid until the call after (a master record is its
// reader's).
func (mi *mergedIter) Next() (*plist.Record, int64, error) {
	for {
		if !mi.basePending {
			rec, off, err := mi.nextBase()
			if err != nil {
				return nil, 0, err
			}
			if rec != nil && mi.pastHi(rec.Key) {
				rec = nil
			}
			mi.baseRec, mi.baseOff, mi.basePending = rec, off, true
		}
		ovOK := mi.ov.Valid() && !mi.pastHi(string(mi.ov.Key()))
		if err := mi.ov.Err(); err != nil {
			return nil, 0, err
		}
		if !ovOK {
			if mi.baseRec == nil {
				return nil, 0, nil
			}
			rec, off := mi.baseRec, mi.baseOff
			mi.basePending = false
			return rec, off, nil
		}
		okey := string(mi.ov.Key())
		if mi.baseRec != nil && mi.baseRec.Key < okey {
			rec, off := mi.baseRec, mi.baseOff
			mi.basePending = false
			return rec, off, nil
		}
		// Overlay at or before the base: it wins; an equal base key is
		// masked (updated or tombstoned).
		if mi.baseRec != nil && mi.baseRec.Key == okey {
			mi.basePending = false
		}
		val := mi.ov.Val()
		if len(val) == 0 || val[0] == ovTombstone {
			mi.ov.Next()
			continue
		}
		rec, err := plist.DecodeRecord(val[1:])
		if err != nil {
			return nil, 0, err
		}
		mi.ov.Next()
		return rec, overlayLoc, nil
	}
}

// mergedScan opens a merged iterator over [lo, hi) with the master side
// streamed sequentially (the scan evaluation path). hi == "" means
// unbounded.
func (env *evalEnv) mergedScan(lo, hi string) (*mergedIter, error) {
	s := env.s
	off, found, err := s.seekOffsetMetered(lo, env.m)
	if err != nil {
		return nil, err
	}
	var rd *plist.Reader
	if found {
		if rd, err = s.master.MeteredReaderAt(off, env.m); err != nil {
			return nil, err
		}
	}
	mi := &mergedIter{hi: hi, nextBase: func() (*plist.Record, int64, error) {
		if rd == nil {
			return nil, 0, nil
		}
		rec, err := rd.Next()
		if err == io.EOF {
			return nil, 0, nil
		}
		if err != nil {
			return nil, 0, err
		}
		return rec, overlayLoc, nil // sequential source: offset unused
	}}
	if s.over != nil && s.over.Len() > 0 {
		mi.ov = s.over.Seek([]byte(lo), env.m)
	}
	return mi, nil
}

// mergedScanOff is mergedScan with the master side read through the
// random reader so every record carries its stream offset — the knn
// scan needs offsets to re-fetch winners.
func (env *evalEnv) mergedScanOff(lo, hi string) (*mergedIter, error) {
	s := env.s
	off, found, err := s.seekOffsetMetered(lo, env.m)
	if err != nil {
		return nil, err
	}
	end := s.masterBytes()
	rr := s.master.MeteredRandomReader(env.m)
	mi := &mergedIter{hi: hi, nextBase: func() (*plist.Record, int64, error) {
		if !found || off >= end {
			return nil, 0, nil
		}
		rec, next, err := rr.ReadAt(off)
		if err != nil {
			return nil, 0, err
		}
		recOff := off
		off = next
		return rec, recOff, nil
	}}
	if s.over != nil && s.over.Len() > 0 {
		mi.ov = s.over.Seek([]byte(lo), env.m)
	}
	return mi, nil
}

// forEachLiveEntry streams every live record (master overlaid) in key
// order, for Reopen's scan and for Instance; fn must not keep rec.
func (s *Store) forEachLiveEntry(fn func(*plist.Record) error) error {
	env := &evalEnv{s: s}
	mi, err := env.mergedScan("", "")
	if err != nil {
		return err
	}
	for {
		rec, _, err := mi.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			return nil
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// OverlayLen reports the number of overlay keys (records plus
// tombstones) masking the master list — 0 on a freshly built store.
// Nothing compacts the overlay: it grows until the next full rebuild
// (core.Update, or an UpdateEntries batch that needs one) starts again
// from an empty one.
func (s *Store) OverlayLen() int {
	if s.over == nil {
		return 0
	}
	return s.over.Len()
}
