package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/strindex"
	"repro/internal/vindex"
)

// Manifest locates the store's structures on a snapshotted disk. The
// in-memory state (suffix arrays, catalog statistics, the orphan count)
// is not serialized: Reopen rebuilds it in one scan of the live entries.
type Manifest struct {
	Count       int            `json:"count"`
	MasterPages []pager.PageID `json:"masterPages"`
	MasterSize  int64          `json:"masterSize"`
	MasterCount int64          `json:"masterCount"`
	DNRoot      pager.PageID   `json:"dnRoot"`
	DNLen       int            `json:"dnLen"`
	AttrRoot    pager.PageID   `json:"attrRoot,omitempty"` // 0 when unindexed
	AttrLen     int            `json:"attrLen,omitempty"`
	// OverlayRoot/OverlayLen locate the entry overlay, an internal/btree
	// tree masking the master list; 0 until the first incremental
	// mutation.
	OverlayRoot pager.PageID `json:"overlayRoot,omitempty"`
	OverlayLen  int          `json:"overlayLen,omitempty"`
	// LegacyOverRoot is the overlay locator of manifests written before
	// the overlay moved onto internal/btree; it pointed at pages in the
	// removed path-copying tree's node format. Never written; Reopen
	// rejects a manifest that carries it (ErrLegacyOverlay).
	LegacyOverRoot pager.PageID `json:"overRoot,omitempty"`
	// Vecs carries one flat-vector-index manifest per vector-typed
	// attribute (ordered by attribute name); the posting pages travel in
	// the disk image like every other structure.
	Vecs []vindex.Manifest `json:"vecs,omitempty"`
}

// Manifest returns the JSON manifest describing this store's on-disk
// layout. The store's trees must be flushed first (Build leaves them
// flushed; call after any direct manipulation).
func (s *Store) Manifest() ([]byte, error) {
	m := Manifest{
		Count:       s.count,
		MasterPages: s.master.PageIDs(),
		MasterSize:  s.master.Size(),
		MasterCount: s.master.Count(),
		DNRoot:      s.dn.Root(),
		DNLen:       s.dn.Len(),
	}
	if s.attr != nil {
		m.AttrRoot = s.attr.Root()
		m.AttrLen = s.attr.Len()
	}
	if s.over != nil {
		m.OverlayRoot = s.over.Root()
		m.OverlayLen = s.over.Len()
	}
	attrs := make([]string, 0, len(s.vecs))
	for attr := range s.vecs {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		m.Vecs = append(m.Vecs, s.vecs[attr].Manifest())
	}
	return json.Marshal(m)
}

// ErrLegacyOverlay reports a manifest whose entry overlay is in the
// node format of the removed path-copying tree (manifest key
// "overRoot"). Those pages do not parse as internal/btree nodes, so the
// checkpoint is refused instead of misread; checkpoints without an
// overlay are unaffected.
var ErrLegacyOverlay = errors.New(`store: manifest carries a legacy "overRoot" overlay (path-copying tree node format, no longer readable)`)

// Reopen attaches a Store to a snapshotted disk using its manifest, in
// one scan of the live entries (the master list merged with the
// overlay). The scan is the recovery check — every record must decode
// and pass the gate, and the live count must equal the manifest's — and
// it recounts the orphans and, for an indexed store, rebuilds the
// statistics and suffix arrays, so a reopened store describes the
// mutated instance, not the stale master image.
func Reopen(disk *pager.Disk, schema *model.Schema, manifest []byte) (*Store, error) {
	var m Manifest
	if err := json.Unmarshal(manifest, &m); err != nil {
		return nil, fmt.Errorf("store: bad manifest: %w", err)
	}
	if m.LegacyOverRoot != 0 {
		return nil, ErrLegacyOverlay
	}
	s := &Store{
		disk:   disk,
		schema: schema,
		master: plist.Restore(disk, m.MasterPages, m.MasterSize, m.MasterCount),
		dn:     btree.Open(disk, poolPages, m.DNRoot, m.DNLen),
		count:  m.Count,
	}
	if m.OverlayRoot != 0 {
		s.over = btree.Open(disk, poolPages, m.OverlayRoot, m.OverlayLen)
	}
	if len(m.Vecs) > 0 {
		s.vecs = make(map[string]*vindex.Index, len(m.Vecs))
		for _, vm := range m.Vecs {
			ix, err := vindex.Restore(disk, vm)
			if err != nil {
				return nil, err
			}
			s.vecs[vm.Attr] = ix
		}
	}
	if m.AttrRoot != 0 {
		s.attr = btree.Open(disk, poolPages, m.AttrRoot, m.AttrLen)
		s.suffix = make(map[string]*strindex.SuffixIndex)
		s.stats = newCatalog()
	}

	strVals := make(stringValues)
	live := gate{schema: schema}
	if err := s.forEachLiveEntry(func(rec *plist.Record) error {
		// The one place every record is decoded whole. Materialize takes
		// the record's key for the entry's, so that the two agree is
		// checked here, against the DN, and not by the gate.
		e, err := rec.Materialize()
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if e.DN().Key() != rec.Key {
			return fmt.Errorf("store: record %q carries the entry %s", rec.Key, e.DN())
		}
		if err := live.admit(rec.Key, e); err != nil || s.attr == nil {
			return err
		}
		for _, av := range e.Pairs() {
			s.stats.observe(av.Attr, av.Value)
			if av.Value.Kind() == model.KindString {
				strVals.add(av.Attr, av.Value.Str())
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if live.count != m.Count {
		return nil, fmt.Errorf("store: manifest counts %d entries, the image holds %d", m.Count, live.count)
	}
	s.orphans = live.orphans
	if s.attr != nil {
		s.stats.finish(s.master.Size(), s.master.Count())
		s.indexStrings(strVals)
	}
	return s, nil
}
