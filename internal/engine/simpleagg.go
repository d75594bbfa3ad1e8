package engine

import (
	"io"

	"repro/internal/plist"
	"repro/internal/query"
)

// EvalSimpleAgg evaluates the simple aggregate selection query
// (g L1 AggSelFilter) in at most two scans of L1 (Theorem 6.1): an
// optional first scan computes the entry-set aggregates (count($$) and
// agg1(agg2(attr)) accumulated incrementally, as in Ross et al. [27]);
// the second scan evaluates the per-entry condition and emits.
func (e *Engine) EvalSimpleAgg(l1 *plist.List, sel *query.AggSel) (*plist.List, error) {
	sa := &setAccs{n1: l1.Count()}
	if needsSelfPrePass(sel) {
		rd := l1.Reader()
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			sa.foldSelf(sel, rec)
		}
	}
	w := plist.NewWriter(e.disk())
	rd := l1.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return w.Close()
		}
		if err != nil {
			return nil, w.Abort(err)
		}
		if evalAggSel(sel, rec, nil, nil, sa) {
			if err := w.Append(clean(rec)); err != nil {
				return nil, w.Abort(err)
			}
		}
	}
}
