package store

import (
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
type catalog struct {
	avgRecBytes int64
	attrs       map[string]*attrStats
}

type attrStats struct {
	postings  int64            // total (attr, value) pairs
	strCounts map[string]int64 // per-value posting counts (string kinds)
	intVals   []int64          // sorted int values (multiset)
}

func newCatalog() *catalog { return &catalog{attrs: make(map[string]*attrStats)} }

func (c *catalog) observe(attr string, v model.Value) {
	if v.Kind() == model.KindVector {
		return // embeddings are summarized by the vector index itself
	}
	st := c.attrs[attr]
	if st == nil {
		st = &attrStats{strCounts: make(map[string]int64)}
		c.attrs[attr] = st
	}
	st.postings++
	switch v.Kind() {
	case model.KindInt:
		st.intVals = append(st.intVals, v.Int())
	case model.KindDN:
		st.strCounts[v.DN().Key()]++
	default:
		st.strCounts[v.Str()]++
	}
}

// clone deep-copies the catalog so the incremental mutation path can
// maintain a forked store's statistics without touching the published
// snapshot's.
func (c *catalog) clone() *catalog {
	out := &catalog{avgRecBytes: c.avgRecBytes, attrs: make(map[string]*attrStats, len(c.attrs))}
	for a, st := range c.attrs {
		ns := &attrStats{
			postings:  st.postings,
			strCounts: make(map[string]int64, len(st.strCounts)),
			intVals:   append([]int64(nil), st.intVals...),
		}
		for k, v := range st.strCounts {
			ns.strCounts[k] = v
		}
		out.attrs[a] = ns
	}
	return out
}

// observeSorted is observe for a finished catalog: integer values are
// inserted in place so intVals stays sorted without a full re-sort.
func (c *catalog) observeSorted(attr string, v model.Value) {
	if v.Kind() == model.KindVector {
		return
	}
	st := c.attrs[attr]
	if st == nil {
		st = &attrStats{strCounts: make(map[string]int64)}
		c.attrs[attr] = st
	}
	st.postings++
	switch v.Kind() {
	case model.KindInt:
		x := v.Int()
		i := sort.Search(len(st.intVals), func(i int) bool { return st.intVals[i] >= x })
		st.intVals = append(st.intVals, 0)
		copy(st.intVals[i+1:], st.intVals[i:])
		st.intVals[i] = x
	case model.KindDN:
		st.strCounts[v.DN().Key()]++
	default:
		st.strCounts[v.Str()]++
	}
}

// unobserve reverses one observe: entry deletion on the incremental
// path. Counts that reach zero are dropped so estimateHits stays exact.
func (c *catalog) unobserve(attr string, v model.Value) {
	if v.Kind() == model.KindVector {
		return
	}
	st := c.attrs[attr]
	if st == nil {
		return
	}
	st.postings--
	dec := func(k string) {
		if st.strCounts[k]--; st.strCounts[k] <= 0 {
			delete(st.strCounts, k)
		}
	}
	switch v.Kind() {
	case model.KindInt:
		x := v.Int()
		i := sort.Search(len(st.intVals), func(i int) bool { return st.intVals[i] >= x })
		if i < len(st.intVals) && st.intVals[i] == x {
			st.intVals = append(st.intVals[:i], st.intVals[i+1:]...)
		}
	case model.KindDN:
		dec(v.DN().Key())
	default:
		dec(v.Str())
	}
}

func (c *catalog) finish(totalBytes, count int64) {
	if count > 0 {
		c.avgRecBytes = totalBytes / count
	}
	for _, st := range c.attrs {
		sort.Slice(st.intVals, func(i, j int) bool { return st.intVals[i] < st.intVals[j] })
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
				sum += st.strCounts[sfx.Values()[vi]]
			}
			return sum, true
		}
		v, err := model.ParseValue(t, q.Filter.Operand)
		if err != nil {
			return 0, true
		}
		switch kind {
		case model.KindInt:
			return c.intRangeCount(st, v.Int(), v.Int()), true
		case model.KindDN:
			return st.strCounts[v.DN().Key()], true
		default:
			return st.strCounts[v.Str()], true
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
			return c.intRangeBelow(st, x-1), true
		case filter.OpLE:
			return c.intRangeBelow(st, x), true
		case filter.OpGT:
			return st.postings - c.intRangeBelow(st, x), true
		default: // GE
			return st.postings - c.intRangeBelow(st, x-1), true
		}
	default:
		return 0, false
	}
}

// intRangeBelow counts values <= x.
func (c *catalog) intRangeBelow(st *attrStats, x int64) int64 {
	return int64(sort.Search(len(st.intVals), func(i int) bool { return st.intVals[i] > x }))
}

func (c *catalog) intRangeCount(st *attrStats, lo, hi int64) int64 {
	return c.intRangeBelow(st, hi) - c.intRangeBelow(st, lo-1)
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
