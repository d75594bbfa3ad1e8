package engine

import (
	"io"

	"repro/internal/extsort"
	"repro/internal/model"
	"repro/internal/plist"
	"repro/internal/query"
)

// This file implements the "straightforward way" each evaluation section
// of the paper starts from: testing independently whether each entry of
// the first operand is in the output by searching the second operand for
// witnesses (Sections 5.3, 6.4 and 7.2 call this approach quadratic).
// None of these operators exploit the sorted representation; they exist
// as baselines for the crossover experiments (E10) and as oracles for
// correctness tests of the stack and sort-merge algorithms.

// NaiveBool computes the boolean operators by nested-loop membership
// tests (and, for or, a concatenate-sort-dedupe pass).
func (e *Engine) NaiveBool(op query.BoolOp, l1, l2 *plist.List) (*plist.List, error) {
	member := func(l *plist.List, key string) (bool, error) {
		rd := l.Reader()
		for {
			rec, err := rd.Next()
			if err == io.EOF {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			if rec.Key == key {
				return true, nil
			}
		}
	}
	switch op {
	case query.OpAnd, query.OpDiff:
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
			in2, err := member(l2, rec.Key)
			if err != nil {
				return nil, w.Abort(err)
			}
			if (op == query.OpAnd) == in2 {
				if err := w.Append(clean(rec)); err != nil {
					return nil, w.Abort(err)
				}
			}
		}
	default: // OpOr
		spool := plist.NewWriter(e.disk()).Unordered()
		copyAll := func(l *plist.List, skipIfIn *plist.List) error {
			rd := l.Reader()
			for {
				rec, err := rd.Next()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if skipIfIn != nil {
					dup, err := member(skipIfIn, rec.Key)
					if err != nil {
						return err
					}
					if dup {
						continue
					}
				}
				if err := spool.Append(clean(rec)); err != nil {
					return err
				}
			}
		}
		if err := copyAll(l1, nil); err != nil {
			return nil, spool.Abort(err)
		}
		if err := copyAll(l2, l1); err != nil {
			return nil, spool.Abort(err)
		}
		raw, err := spool.Close()
		if err != nil {
			return nil, err
		}
		out, err := extsort.Sort(e.disk(), raw.Reader(), e.sortCfg())
		if err != nil {
			return nil, err
		}
		return out, raw.Free()
	}
}

// NaiveHier computes hierarchical selection (with optional aggregate
// selection) by re-scanning L2 — and, for the path-constrained
// operators, L3 per candidate witness — for every entry of L1.
func (e *Engine) NaiveHier(op query.HierOp, l1, l2, l3 *plist.List, sel *query.AggSel) (*plist.List, error) {
	specs := witnessSpecs(sel)
	related := func(r1, r2 string) bool {
		switch op {
		case query.OpParents:
			return model.KeyIsParent(r2, r1)
		case query.OpChildren:
			return model.KeyIsParent(r1, r2)
		case query.OpAncestors, query.OpAncestorsC:
			return model.KeyIsAncestor(r2, r1)
		default:
			return model.KeyIsAncestor(r1, r2)
		}
	}
	blocked := func(r1, r2 string) (bool, error) {
		if l3 == nil {
			return false, nil
		}
		rd := l3.Reader()
		for {
			r3, err := rd.Next()
			if err == io.EOF {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			var between bool
			if op == query.OpAncestorsC {
				between = model.KeyIsAncestor(r3.Key, r1) && model.KeyIsAncestor(r2, r3.Key)
			} else {
				between = model.KeyIsAncestor(r1, r3.Key) && model.KeyIsAncestor(r3.Key, r2)
			}
			if between {
				return true, nil
			}
		}
	}

	annotated := plist.NewWriter(e.disk())
	rd1 := l1.Reader()
	for {
		r1, err := rd1.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, annotated.Abort(err)
		}
		stats := make([]aggStats, len(specs))
		found := false
		rd2 := l2.Reader()
		for {
			r2, err := rd2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, annotated.Abort(err)
			}
			if !related(r1.Key, r2.Key) {
				continue
			}
			if op.Ternary() {
				b, err := blocked(r1.Key, r2.Key)
				if err != nil {
					return nil, annotated.Abort(err)
				}
				if b {
					continue
				}
			}
			found = true
			for si, a := range specs {
				s := foldEntryValues(r2, a)
				stats[si].merge(s)
			}
		}
		if !found {
			continue
		}
		out := &plist.Record{Key: r1.Key}
		for _, s := range stats {
			out.Aux = s.encode(out.Aux)
		}
		if err := annotated.Append(out); err != nil {
			return nil, annotated.Abort(err)
		}
	}
	al, err := annotated.Close()
	if err != nil {
		return nil, err
	}
	defer freeAll(al)
	return e.finishAnnotated(l1, al, specs, sel)
}

// NaiveEmbedRef computes the embedded-reference operators by a nested
// loop over (L1, L2) pairs.
func (e *Engine) NaiveEmbedRef(op query.RefOp, l1, l2 *plist.List, attr string, sel *query.AggSel) (*plist.List, error) {
	attr = model.NormalizeAttr(attr)
	specs := witnessSpecs(sel)
	annotated := plist.NewWriter(e.disk())
	rd1 := l1.Reader()
	for {
		r1, err := rd1.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, annotated.Abort(err)
		}
		var refs []string
		if op == query.OpValueDN {
			refs = dnValuesOf(r1, attr)
		}
		stats := make([]aggStats, len(specs))
		found := false
		rd2 := l2.Reader()
		for {
			r2, err := rd2.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, annotated.Abort(err)
			}
			match := false
			if op == query.OpValueDN {
				for _, k := range refs {
					if k == r2.Key {
						match = true
						break
					}
				}
			} else {
				for _, k := range dnValuesOf(r2, attr) {
					if k == r1.Key {
						match = true
						break
					}
				}
			}
			if !match {
				continue
			}
			found = true
			for si, a := range specs {
				s := foldEntryValues(r2, a)
				stats[si].merge(s)
			}
		}
		if !found {
			continue
		}
		out := &plist.Record{Key: r1.Key}
		for _, s := range stats {
			out.Aux = s.encode(out.Aux)
		}
		if err := annotated.Append(out); err != nil {
			return nil, annotated.Abort(err)
		}
	}
	al, err := annotated.Close()
	if err != nil {
		return nil, err
	}
	defer freeAll(al)
	return e.finishAnnotated(l1, al, specs, sel)
}
