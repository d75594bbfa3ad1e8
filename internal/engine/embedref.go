package engine

import (
	"io"

	"repro/internal/extsort"
	"repro/internal/model"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
)

// dnValuesOf returns the distinct DN-valued entries of attr in e, as
// reverse keys. Witness sets are sets: duplicate pairs in one entry must
// not double-count.
func dnValuesOf(e model.Attrs, attr string) []string {
	var out []string
	last := ""
	for _, v := range e.Values(attr) { // sorted, so duplicates are adjacent
		if v.Kind() != model.KindDN {
			continue
		}
		k := v.DN().Key()
		if len(out) > 0 && k == last {
			continue
		}
		out = append(out, k)
		last = k
	}
	return out
}

// ComputeERAggDV is Algorithm ComputeERAggDV (Figure 3) generalized to
// arbitrary aggregate selections: dv selects the entries of L1 whose DN
// is embedded in attribute A of some L2 entry.
//
// Phase 1 creates the list of pairs LP — one record per embedded DN
// value, carrying the referencing L2 entry — and sorts it by the
// lexicographic ordering of the reverse of the embedded DNs. Phase 2
// merge-joins LP against L1 (both sorted the same way), folding witness
// statistics per L1 entry. Phase 3 applies the aggregate selection.
func (e *Engine) ComputeERAggDV(l1, l2 *plist.List, attr string, sel *query.AggSel) (*plist.List, error) {
	return e.computeERAggDV(l1, l2, attr, sel, store.NeedAll)
}

// computeERAggDV is ComputeERAggDV with LP's pairs cut to what the
// witness folds read: under NeedKeys (every fold is count($2), see
// witnessNeed) a pair is the embedded DN's key alone, not that key with
// the whole referencing entry, which shrinks the sort of Theorem 7.1.
// The evaluator passes the need it derives; an operator called on its
// own keeps Figure 3's (DN, entry) pairs.
func (e *Engine) computeERAggDV(l1, l2 *plist.List, attr string, sel *query.AggSel, pairs store.Need) (*plist.List, error) {
	attr = model.NormalizeAttr(attr)
	specs := witnessSpecs(sel)

	// Phase 1: build and sort LP.
	spool := plist.NewWriter(e.disk()).Unordered()
	rd := l2.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, k := range dnValuesOf(rec, attr) {
			pair := plist.Record{Key: k}
			if pairs == store.NeedAll {
				pair = rec.Under(k)
			}
			if err := spool.Append(&pair); err != nil {
				return nil, err
			}
		}
	}
	raw, err := spool.Close()
	if err != nil {
		return nil, err
	}
	lp, err := extsort.Sort(e.disk(), raw.Reader(), e.sortCfg())
	if err != nil {
		return nil, err
	}
	if err := raw.Free(); err != nil {
		return nil, err
	}
	defer freeAll(lp)

	// Phase 2: merge-join LP with L1, emitting one annotated record per
	// L1 entry that has at least one witness.
	annotated := plist.NewWriter(e.disk())
	l1rd := l1.Reader()
	lprd := lp.Reader()
	lpHead, lpErr := lprd.Next()
	stats := make([]aggStats, len(specs))
	var out plist.Record
	for {
		r1, err := l1rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for lpErr == nil && lpHead.Key < r1.Key {
			lpHead, lpErr = lprd.Next()
		}
		if lpErr != nil && lpErr != io.EOF {
			return nil, lpErr
		}
		clear(stats)
		n := 0
		for lpErr == nil && lpHead.Key == r1.Key {
			for si, a := range specs {
				s := foldEntryValues(lpHead, a)
				stats[si].merge(s)
			}
			n++
			lpHead, lpErr = lprd.Next()
		}
		if lpErr != nil && lpErr != io.EOF {
			return nil, lpErr
		}
		if n == 0 {
			continue
		}
		out.Key, out.Aux = r1.Key, out.Aux[:0]
		for _, s := range stats {
			out.Aux = s.encode(out.Aux)
		}
		if err := annotated.Append(&out); err != nil {
			return nil, err
		}
	}
	al, err := annotated.Close()
	if err != nil {
		return nil, err
	}
	defer freeAll(al)

	return e.finishAnnotated(l1, al, specs, sel)
}

// ComputeERAggVD is the symmetric valueDN algorithm: vd selects the
// entries of L1 holding, in attribute A, the DN of some L2 entry.
//
// LP is built from L1 (one record per embedded value, tagged with the
// referencing entry's DN), sorted by embedded-DN reverse key, and
// merge-joined with L2; each match yields a witness contribution keyed
// by the referencing entry, which a second sort brings back into L1
// order for aggregation and selection.
func (e *Engine) ComputeERAggVD(l1, l2 *plist.List, attr string, sel *query.AggSel) (*plist.List, error) {
	attr = model.NormalizeAttr(attr)
	specs := witnessSpecs(sel)

	// Phase 1: LP from L1.
	spool := plist.NewWriter(e.disk()).Unordered()
	rd := l1.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for _, k := range dnValuesOf(rec, attr) {
			// Carry only the referencing entry's identity.
			pair := rec.DNOnly(k)
			if err := spool.Append(&pair); err != nil {
				return nil, err
			}
		}
	}
	raw, err := spool.Close()
	if err != nil {
		return nil, err
	}
	lp, err := extsort.Sort(e.disk(), raw.Reader(), e.sortCfg())
	if err != nil {
		return nil, err
	}
	if err := raw.Free(); err != nil {
		return nil, err
	}

	// Phase 2: merge-join LP with L2; emit one contribution per
	// (referencing entry, witness) pair, keyed by the referencing entry.
	contribs := plist.NewWriter(e.disk()).Unordered()
	l2rd := l2.Reader()
	lprd := lp.Reader()
	r2, r2Err := l2rd.Next()
	var out plist.Record
	for {
		pair, err := lprd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for r2Err == nil && r2.Key < pair.Key {
			r2, r2Err = l2rd.Next()
		}
		if r2Err != nil && r2Err != io.EOF {
			return nil, r2Err
		}
		if r2Err == nil && r2.Key == pair.Key {
			// The pair is keyed by the DN it embeds; the contribution goes
			// under the referencing entry's own key, which its DN gives.
			out.Key, out.Aux = pair.DN().Key(), out.Aux[:0]
			for _, a := range specs {
				s := foldEntryValues(r2, a)
				out.Aux = s.encode(out.Aux)
			}
			if err := contribs.Append(&out); err != nil {
				return nil, err
			}
		}
	}
	if err := lp.Free(); err != nil {
		return nil, err
	}
	rawC, err := contribs.Close()
	if err != nil {
		return nil, err
	}
	sortedC, err := extsort.Sort(e.disk(), rawC.Reader(), e.sortCfg())
	if err != nil {
		return nil, err
	}
	if err := rawC.Free(); err != nil {
		return nil, err
	}

	// Phase 3: group contributions per referencing entry.
	annotated := plist.NewWriter(e.disk())
	crd := sortedC.Reader()
	var cur []byte // key of the group being folded, copied: c is the reader's
	inGroup := false
	curStats := make([]aggStats, len(specs))
	flush := func() error {
		if !inGroup {
			return nil
		}
		out.Key, out.Aux = string(cur), out.Aux[:0]
		for _, s := range curStats {
			out.Aux = s.encode(out.Aux)
		}
		inGroup = false
		return annotated.Append(&out)
	}
	for {
		c, err := crd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if !inGroup || string(cur) != c.Key {
			if err := flush(); err != nil {
				return nil, err
			}
			cur, inGroup = append(cur[:0], c.Key...), true
			clear(curStats)
		}
		for si := range specs {
			curStats[si].merge(decodeStats(c.Aux[si*statsInts : (si+1)*statsInts]))
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if err := sortedC.Free(); err != nil {
		return nil, err
	}
	al, err := annotated.Close()
	if err != nil {
		return nil, err
	}
	defer freeAll(al)

	return e.finishAnnotated(l1, al, specs, sel)
}

// finishAnnotated joins L1 with its sorted annotation list (one record
// per entry with witnesses, Aux = per-spec statistics), computes the
// entry-set accumulators if the selection needs them, and emits the
// entries satisfying the selection.
func (e *Engine) finishAnnotated(l1, al *plist.List, specs []string, sel *query.AggSel) (*plist.List, error) {
	sa := &setAccs{n1: l1.Count()}
	empty := make([]aggStats, len(specs))
	found := make([]aggStats, len(specs))

	scan := func(fn func(rec *plist.Record, wstats []aggStats) error) error {
		l1rd := l1.Reader()
		ard := al.Reader()
		aHead, aErr := ard.Next()
		for {
			rec, err := l1rd.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			wstats := empty
			if aErr == nil && aHead.Key == rec.Key {
				wstats = found
				for si := range specs {
					wstats[si] = decodeStats(aHead.Aux[si*statsInts : (si+1)*statsInts])
				}
				aHead, aErr = ard.Next()
			}
			if aErr != nil && aErr != io.EOF {
				return aErr
			}
			if err := fn(rec, wstats); err != nil {
				return err
			}
		}
	}

	if sel != nil && sel.UsesEntrySet() {
		err := scan(func(rec *plist.Record, wstats []aggStats) error {
			sa.foldSelf(sel, rec)
			sa.foldWitness(sel, specs, wstats)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	w := plist.NewWriter(e.disk())
	err := scan(func(rec *plist.Record, wstats []aggStats) error {
		if evalAggSel(sel, rec, specs, wstats, sa) {
			return w.Append(clean(rec))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return w.Close()
}
