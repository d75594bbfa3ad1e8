package store

import (
	"math"
	"sort"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/vindex"
)

// A knn(attr, vec, k) atomic filter under a one or sub scope selects
// the k entries of the scoped candidate set nearest to the query vector
// (squared L2, ties by reverse-DN key), emitted as a
// reverse-DN-key-sorted list like every other atomic result. Two access
// paths exist, chosen by scope selectivity (preferKNNScanMetered), both
// exact: the flat vector index (read only the posting pages overlapping
// the scope's contiguous key range, then fetch the k winners from the
// master list) and a brute-force scan of the scope's master range. The
// paths share the distance function and the tie-break, so their answers
// are byte-identical — knnScan is the oracle the index path is tested
// against.

// knnIndex is the index-backed path: a fence-guided scan of the posting
// range [baseKey, SubtreeHigh(baseKey)), then k master fetches.
func (env *evalEnv) knnIndex(q *query.Atomic, ix *vindex.Index) (*plist.List, error) {
	baseKey := q.Base.Key()
	hi := model.SubtreeHigh(baseKey)
	depth := q.Base.Depth()
	var accept func(string) bool
	if q.Scope == query.ScopeOne {
		accept = func(k string) bool { return scopeOK(baseKey, depth, q.Scope, k) }
	}
	nbrs, err := ix.Search(baseKey, hi, accept, q.Filter.Vec, q.Filter.K, env.m)
	if err != nil {
		return nil, err
	}
	return env.fetchNeighbors(nbrs)
}

// knnScan is the brute-force path: scan the scope's master range,
// stream candidates through a bounded top-k collector, then fetch the
// winners again in key order. Memory stays O(k); the winner re-fetch
// costs at most k extra page reads.
func (env *evalEnv) knnScan(q *query.Atomic) (*plist.List, error) {
	baseKey := q.Base.Key()
	hi := model.SubtreeHigh(baseKey)
	depth := q.Base.Depth()

	mi, err := env.mergedScanOff(baseKey, hi)
	if err != nil {
		return nil, err
	}
	top := vindex.NewCollector(q.Filter.K)
	for {
		rec, recOff, err := mi.Next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		if !scopeOK(baseKey, depth, q.Scope, rec.Key) {
			continue
		}
		dist, ok := knnEntryDist(rec, q.Filter.Attr, q.Filter.Vec)
		if !ok {
			continue
		}
		top.Offer(vindex.Neighbor{Key: rec.Key, Off: recOff, Dist: dist})
	}
	return env.fetchNeighbors(top.Sorted())
}

// fetchNeighbors writes the winners as a key-sorted list, fetching
// their entries unless the evaluation needs keys only.
func (env *evalEnv) fetchNeighbors(nbrs []vindex.Neighbor) (*plist.List, error) {
	sort.Slice(nbrs, func(i, j int) bool { return nbrs[i].Key < nbrs[j].Key })
	w := plist.NewWriter(env.out)
	rr := env.s.master.MeteredRandomReader(env.m)
	for _, n := range nbrs {
		if err := env.emit(w, rr, n.Key, n.Off); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// knnEntryDist returns the entry's distance to the query vector: the
// minimum squared L2 over its values of attr whose dimension matches.
// ok is false when the entry is not a candidate (no such value).
func knnEntryDist(e model.Attrs, attr string, qv []float32) (float64, bool) {
	best := math.Inf(1)
	found := false
	for _, v := range e.Values(attr) {
		if v.Kind() != model.KindVector || len(v.Vec()) != len(qv) {
			continue
		}
		if d := vindex.SquaredL2(v.Vec(), qv); d < best || !found {
			best = d
			found = true
		}
	}
	return best, found
}

// preferKNNScanMetered decides whether the brute-force scan is expected
// to beat the vector index for this scope: the index reads the scope's
// posting-range bytes plus ~k random master fetches, the scan reads the
// scope's whole master extent. Selective scopes (small subtrees of a
// large instance) strongly favor the index; a scope covering most of
// the instance makes the contiguous scan competitive. The DN-index
// probes behind the estimates are charged to the per-query meter.
func (s *Store) preferKNNScanMetered(q *query.Atomic, ix *vindex.Index, m *pager.Meter) bool {
	scan, err := s.scanBytesMetered(q, m)
	if err != nil || scan == 0 {
		return false
	}
	lo := q.Base.Key()
	vecBytes := ix.RangeBytes(lo, model.SubtreeHigh(lo))
	avgRec := int64(64)
	if s.stats != nil && s.stats.avgRecBytes > 0 {
		avgRec = s.stats.avgRecBytes
	} else if s.count > 0 {
		avgRec = s.masterBytes() / int64(s.count)
	}
	return vecBytes+2*int64(q.Filter.K)*avgRec > scan
}
