package store

import (
	"maps"
	"slices"
	"sort"

	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/query"
)

// catalog holds the statistics Build gathers for cost-based access-path
// selection: exact per-value counts for string/DN attributes and the
// sorted multiset of values for integer attributes. Like a commercial
// system's catalog, it is memory-resident; the data it summarizes is
// what lives on disk.
//
// A published catalog is immutable. A write works on a clone that shares
// every attribute's statistics until it touches them, and a touched
// attribute shares its base with the generation before: see attrStats.
type catalog struct {
	avgRecBytes int64
	attrs       map[string]*attrStats
	touched     map[string]bool // attributes whose attrStats a clone has made its own
}

// attrStats is one attribute's statistics: a base that Build and Reopen
// fill and every later generation shares, and the few corrections the
// writes since have made, which a clone copies when it touches the
// attribute. Once the corrections number 1/foldFraction of the base
// they are folded into a new base, so a write copies O(corrections)
// and a fold, O(base), comes once per base/foldFraction writes.
type attrStats struct {
	postings int64 // total (attr, value) pairs
	// Per-value posting counts (string kinds): strBase[k] + strDelta[k].
	strBase  map[string]int64
	strDelta map[string]int64 // signed, no zero entries
	// The int values, a sorted multiset: intBase with intAdd merged in
	// and one occurrence of each intDel element taken out. All three are
	// sorted, and intDel is a sub-multiset of intBase.
	intBase, intAdd, intDel []int64
}

// foldFraction is the base-to-corrections ratio at which an attribute's
// corrections are folded into a new base (strindex uses the same one for
// its tail).
const foldFraction = 8

func newCatalog() *catalog { return &catalog{attrs: make(map[string]*attrStats)} }

// observe counts one value into the base of a catalog under construction
// (Build, Reopen); finish sorts the int values afterwards.
func (c *catalog) observe(attr string, v model.Value) {
	if v.Kind() == model.KindVector {
		return // embeddings are summarized by the vector index itself
	}
	st := c.attrs[attr]
	if st == nil {
		st = &attrStats{strBase: make(map[string]int64)}
		c.attrs[attr] = st
	}
	st.postings++
	switch v.Kind() {
	case model.KindInt:
		st.intBase = append(st.intBase, v.Int())
	case model.KindDN:
		st.strBase[v.DN().Key()]++
	default:
		st.strBase[v.Str()]++
	}
}

// clone returns a catalog the incremental mutation path can maintain
// without touching the published one: it shares every attrStats until
// touch replaces it.
func (c *catalog) clone() *catalog {
	out := &catalog{avgRecBytes: c.avgRecBytes, attrs: make(map[string]*attrStats, len(c.attrs))}
	for a, st := range c.attrs {
		out.attrs[a] = st
	}
	return out
}

// touch returns attr's statistics for writing: on a clone's first touch,
// a copy that shares the bases and owns its corrections.
func (c *catalog) touch(attr string) *attrStats {
	if c.touched[attr] {
		return c.attrs[attr]
	}
	st := &attrStats{}
	if old := c.attrs[attr]; old != nil {
		*st = *old
		st.strDelta = maps.Clone(old.strDelta)
		st.intAdd = slices.Clone(old.intAdd)
		st.intDel = slices.Clone(old.intDel)
	}
	if c.touched == nil {
		c.touched = make(map[string]bool)
	}
	c.attrs[attr], c.touched[attr] = st, true
	return st
}

// strCount returns the posting count of one string-kind value.
func (st *attrStats) strCount(k string) int64 { return st.strBase[k] + st.strDelta[k] }

// adjust moves a string-kind value's count by d (+1 or -1).
func (st *attrStats) adjust(k string, d int64) {
	if st.strDelta == nil {
		st.strDelta = make(map[string]int64)
	}
	if st.strDelta[k] += d; st.strDelta[k] == 0 {
		delete(st.strDelta, k)
	}
	if len(st.strDelta)*foldFraction <= len(st.strBase) {
		return
	}
	base := make(map[string]int64, len(st.strBase)+len(st.strDelta))
	for k, n := range st.strBase {
		base[k] = n
	}
	for k, d := range st.strDelta {
		if base[k] += d; base[k] <= 0 {
			delete(base, k) // dropped, so estimateHits stays exact
		}
	}
	st.strBase, st.strDelta = base, nil
}

// intBelow counts the int values <= x.
func (st *attrStats) intBelow(x int64) int64 {
	return below(st.intBase, x) + below(st.intAdd, x) - below(st.intDel, x)
}

// below counts the elements <= x of a sorted slice.
func below(vals []int64, x int64) int64 {
	return int64(sort.Search(len(vals), func(i int) bool { return vals[i] > x }))
}

// foldInts merges the int corrections into a new base once they number
// 1/foldFraction of it.
func (st *attrStats) foldInts() {
	if (len(st.intAdd)+len(st.intDel))*foldFraction <= len(st.intBase) {
		return
	}
	base := make([]int64, 0, len(st.intBase)+len(st.intAdd)-len(st.intDel))
	add, del := st.intAdd, st.intDel
	for _, x := range st.intBase {
		for len(add) > 0 && add[0] <= x {
			base, add = append(base, add[0]), add[1:]
		}
		if len(del) > 0 && del[0] == x {
			del = del[1:]
			continue
		}
		base = append(base, x)
	}
	st.intBase, st.intAdd, st.intDel = append(base, add...), nil, nil
}

// observeSorted counts one value into a cloned catalog (the incremental
// path's add) and reports whether it is a string-kind value that had no
// posting before.
func (c *catalog) observeSorted(attr string, v model.Value) (first bool) {
	if v.Kind() == model.KindVector {
		return false
	}
	st := c.touch(attr)
	st.postings++
	k := ""
	switch v.Kind() {
	case model.KindInt:
		x := v.Int()
		st.intAdd = slices.Insert(st.intAdd, int(below(st.intAdd, x)), x)
		st.foldInts()
		return false
	case model.KindDN:
		k = v.DN().Key()
	default:
		k = v.Str()
	}
	first = st.strCount(k) == 0
	st.adjust(k, 1)
	return first
}

// unobserve reverses one observe: entry deletion on the incremental
// path. Counts that reach zero are dropped so estimateHits stays exact.
func (c *catalog) unobserve(attr string, v model.Value) {
	if v.Kind() == model.KindVector || c.attrs[attr] == nil {
		return
	}
	st := c.touch(attr)
	st.postings--
	switch v.Kind() {
	case model.KindInt:
		x := v.Int()
		if i := int(below(st.intAdd, x)) - 1; i >= 0 && st.intAdd[i] == x {
			st.intAdd = slices.Delete(st.intAdd, i, i+1)
		} else if st.intBelow(x) > st.intBelow(x-1) { // present, so in the base
			st.intDel = slices.Insert(st.intDel, int(below(st.intDel, x)), x)
		}
		st.foldInts()
	case model.KindDN:
		st.adjust(v.DN().Key(), -1)
	default:
		st.adjust(v.Str(), -1)
	}
}

func (c *catalog) finish(totalBytes, count int64) {
	if count > 0 {
		c.avgRecBytes = totalBytes / count
	}
	for _, st := range c.attrs {
		slices.Sort(st.intBase)
	}
}

// estimateHits returns an upper estimate of the number of index
// postings an atomic filter selects, and whether the estimate is
// usable.
func (c *catalog) estimateHits(s *Store, q *query.Atomic) (int64, bool) {
	t, _ := s.schema.AttrType(q.Filter.Attr)
	kind := model.TypeKind(t)
	if kind == model.KindVector {
		return 0, false // not catalogued; vector filters always scan or use vindex
	}
	st := c.attrs[q.Filter.Attr]
	if st == nil {
		return 0, true // attribute absent: nothing matches
	}
	switch q.Filter.Op {
	case filter.OpPresent:
		return st.postings, true
	case filter.OpEq:
		if kind == model.KindString && containsStar(q.Filter.Operand) {
			sfx := s.suffix[q.Filter.Attr]
			if sfx == nil {
				return 0, true
			}
			var sum int64
			for _, vi := range sfx.MatchWildcard(q.Filter.Operand) {
				sum += st.strCount(sfx.Value(vi))
			}
			return sum, true
		}
		v, err := model.ParseValue(t, q.Filter.Operand)
		if err != nil {
			return 0, true
		}
		switch kind {
		case model.KindInt:
			return st.intBelow(v.Int()) - st.intBelow(v.Int()-1), true
		case model.KindDN:
			return st.strCount(v.DN().Key()), true
		default:
			return st.strCount(v.Str()), true
		}
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE:
		if kind != model.KindInt {
			return 0, false
		}
		v, err := model.ParseValue(t, q.Filter.Operand)
		if err != nil {
			return 0, true
		}
		x := v.Int()
		switch q.Filter.Op {
		case filter.OpLT:
			return st.intBelow(x - 1), true
		case filter.OpLE:
			return st.intBelow(x), true
		case filter.OpGT:
			return st.postings - st.intBelow(x), true
		default: // GE
			return st.postings - st.intBelow(x-1), true
		}
	default:
		return 0, false
	}
}

// scanBytes returns the exact master-byte extent of the query's scope
// range, measured through the DN index (two point probes).
func (s *Store) scanBytes(q *query.Atomic) (int64, error) {
	return s.scanBytesMetered(q, nil)
}

// scanBytesMetered is scanBytes with the two DN-index probes charged to
// the per-query meter (nil = uncharged).
func (s *Store) scanBytesMetered(q *query.Atomic, m *pager.Meter) (int64, error) {
	lo := q.Base.Key()
	hi := model.SubtreeHigh(lo)
	start, okStart, err := s.seekOffsetMetered(lo, m)
	if err != nil {
		return 0, err
	}
	if !okStart {
		return 0, nil
	}
	end, okEnd, err := s.seekOffsetMetered(hi, m)
	if err != nil {
		return 0, err
	}
	if !okEnd {
		end = s.masterBytes()
	}
	return end - start, nil
}

// The access-path names the store reports in Plan: a DN-index point
// lookup for base scopes, the attribute/suffix B+tree path, the
// contiguous scope scan, and the two exact knn paths of DESIGN.md §12.
const (
	PathBasePoint = "base-point"
	PathIndex     = "index"
	PathScan      = "scan"
	PathKNNIndex  = "knn-index"
	PathKNNScan   = "knn-scan"
)

// Plan describes how the store would evaluate an atomic query.
type Plan struct {
	// Path is one of "base-point", "index", "scan", "knn-index", or
	// "knn-scan".
	Path string
	// EstHits is the catalog's posting estimate (index-supported shapes
	// only; -1 when unavailable). For knn it is the requested k.
	EstHits int64
	// ScanBytes is the scope range's exact master extent.
	ScanBytes int64
}

// ExplainAtomic reports the access path Eval would choose, without
// evaluating.
func (s *Store) ExplainAtomic(q *query.Atomic) Plan {
	p := Plan{EstHits: -1}
	if q.Scope == query.ScopeBase {
		p.Path = PathBasePoint
		return p
	}
	if sb, err := s.scanBytes(q); err == nil {
		p.ScanBytes = sb
	}
	if q.Filter.Op == filter.OpKNN {
		p.EstHits = int64(q.Filter.K)
		ix := s.VectorIndex(q.Filter.Attr)
		if ix != nil && !s.preferKNNScanMetered(q, ix, nil) {
			p.Path = PathKNNIndex
		} else {
			p.Path = PathKNNScan
		}
		return p
	}
	if s.stats != nil {
		if est, ok := s.stats.estimateHits(s, q); ok {
			p.EstHits = est
		}
	}
	if s.attr != nil && !s.preferScan(q) && indexSupported(s, q) {
		p.Path = PathIndex
	} else {
		p.Path = PathScan
	}
	return p
}

// indexSupported mirrors indexEval's shape dispatch without running it.
func indexSupported(s *Store, q *query.Atomic) bool {
	t, ok := s.schema.AttrType(q.Filter.Attr)
	if !ok {
		return true // degenerate: resolved to empty by the index path
	}
	switch q.Filter.Op {
	case filter.OpPresent, filter.OpEq:
		return true
	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE:
		return model.TypeKind(t) == model.KindInt
	default:
		return false
	}
}

// preferScan decides, per the catalog, whether a scope scan is expected
// to beat the index for this filter. The single-range equality path
// streams hits in key order (roughly one master-page touch per hit
// page); the multi-range shapes (presence, wildcards, integer ranges)
// additionally spool, sort and de-duplicate the hits, so they carry a
// higher cost factor. Once the weighted hit volume approaches the
// scope's byte extent, the contiguous scan wins.
func (s *Store) preferScan(q *query.Atomic) bool {
	return s.preferScanMetered(q, nil)
}

// preferScanMetered is preferScan with its DN-index probes charged to
// the per-query meter.
func (s *Store) preferScanMetered(q *query.Atomic, m *pager.Meter) bool {
	if s.stats == nil {
		return false
	}
	hits, ok := s.stats.estimateHits(s, q)
	if !ok {
		return true // shapes the index cannot serve anyway
	}
	scan, err := s.scanBytesMetered(q, m)
	if err != nil || scan == 0 {
		return false
	}
	return s.indexCostBytes(q, hits, scan) > scan
}

// indexCostBytes is the catalog's byte-cost model for the
// attribute-index path, which preferScan weighs against the scope's
// scan extent. The catalog is instance-global: the index plan walks
// the full composite-key range for the filter (one leaf entry per
// global hit), but fetches master records only for hits inside the
// scope — the fetch volume is scaled by the scope's fraction of the
// master (attribute independence).
// Multi-range shapes (presence, wildcards, integer ranges) additionally
// spool, sort and de-duplicate the hits, so they carry a higher cost
// factor than the single-range equality path.
func (s *Store) indexCostBytes(q *query.Atomic, hits, scan int64) int64 {
	const leafEntryBytes = 64
	scopedHits := hits
	if mb := s.masterBytes(); mb > 0 && scan < mb {
		scopedHits = hits * scan / mb
	}
	factor := int64(2)
	if q.Filter.Op != filter.OpEq || containsStar(q.Filter.Operand) {
		factor = 4 // spool + external sort + fetch
	}
	return hits*leafEntryBytes + factor*scopedHits*s.stats.avgRecBytes
}
