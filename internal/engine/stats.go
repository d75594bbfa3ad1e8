// Package engine implements the evaluation algorithms of "Querying
// Network Directories": table-driven boolean list merges (Section 4.2),
// the stack-based hierarchical selection algorithms ComputeHSPC (Fig 2),
// ComputeHSAD (Fig 4) and ComputeHSADc (Fig 5), their aggregate
// generalizations ComputeHSAgg (Fig 6, Section 6.4), simple aggregate
// selection (Section 6.3), the sort-merge embedded-reference algorithms
// ComputeERAggDV/VD (Fig 3, Section 7.2), the naive quadratic baselines
// each of those sections starts from, and the bottom-up query-tree
// executor of Section 8.2.
//
// All operators consume and produce lists sorted by reverse-DN key, use
// O(1) buffered pages (stacks spill through plist.Stack), and perform
// only counted page I/O, so Theorems 5.1–8.4 can be checked empirically
// against pager statistics.
package engine

import (
	"repro/internal/model"
	"repro/internal/query"
)

// aggStats is the incremental state of one aggregate computation: enough
// to answer any of the five "distributive or algebraic" functions of the
// Fig 9 grammar (min, max, count, sum, average — Section 6.4 notes all
// such aggregates admit this treatment).
type aggStats struct {
	count int64 // folded items (entries for count($2), values otherwise)
	sum   int64
	min   int64
	max   int64
	has   bool // at least one *value* folded (min/max/sum validity)
}

// addValue folds one integer value.
func (s *aggStats) addValue(v int64) {
	s.count++
	s.sum += v
	if !s.has || v < s.min {
		s.min = v
	}
	if !s.has || v > s.max {
		s.max = v
	}
	s.has = true
}

// addEntry folds one witness entry for a value-less count($2).
func (s *aggStats) addEntry() { s.count++ }

// merge folds another state into s (the ⊕ of the stack algorithms).
func (s *aggStats) merge(t aggStats) {
	s.count += t.count
	s.sum += t.sum
	if t.has {
		if !s.has || t.min < s.min {
			s.min = t.min
		}
		if !s.has || t.max > s.max {
			s.max = t.max
		}
		s.has = true
	}
}

// value evaluates fn over the folded items. ok is false when the
// aggregate is undefined (min/max/sum/average over an empty set).
func (s aggStats) value(fn query.AggFunc) (v int64, ok bool) {
	switch fn {
	case query.AggCount:
		return s.count, true
	case query.AggSum:
		return s.sum, s.count > 0
	case query.AggMin:
		return s.min, s.has
	case query.AggMax:
		return s.max, s.has
	case query.AggAvg:
		if s.count == 0 {
			return 0, false
		}
		return s.sum / s.count, true // integer semantics, floored
	default:
		return 0, false
	}
}

// ints is the state as 5 int64s; decodeStats reverses it.
func (s aggStats) ints() [statsInts]int64 {
	h := int64(0)
	if s.has {
		h = 1
	}
	return [statsInts]int64{s.count, s.sum, s.min, s.max, h}
}

// encode appends the state's ints to dst.
func (s aggStats) encode(dst []int64) []int64 {
	a := s.ints()
	return append(dst, a[:]...)
}

const statsInts = 5

func decodeStats(src []int64) aggStats {
	return aggStats{count: src[0], sum: src[1], min: src[2], max: src[3], has: src[4] != 0}
}

// foldEntryValues folds the values of attr in e: every value counts
// (count(SLAPVPRef) counts DN references too — Example 6.1), while the
// numeric statistics fold only integer values. An empty attr folds the
// entry itself (count($2) semantics) and reads nothing of it. e is a
// list record as a rule, which answers from its encoded pairs.
func foldEntryValues(e model.Attrs, attr string) aggStats {
	var s aggStats
	if attr == "" {
		s.addEntry()
		return s
	}
	for _, v := range e.Values(attr) {
		if v.Kind() == model.KindInt {
			s.addValue(v.Int())
		} else {
			s.count++
		}
	}
	return s
}

// witnessSpecs returns the distinct witness-side fold targets an
// aggregate selection needs: "" for count($2) plus any $2.attr names.
// A nil selection (a plain L1 operator) needs only the entry count —
// the paper's count($2) > 0 special case.
func witnessSpecs(sel *query.AggSel) []string {
	if sel == nil {
		return []string{""}
	}
	seen := map[string]bool{}
	var out []string
	add := func(attr string) {
		if !seen[attr] {
			seen[attr] = true
			out = append(out, attr)
		}
	}
	for _, side := range []query.AggAttr{sel.Left, sel.Right} {
		switch side.Kind {
		case query.KindEntry:
			if side.Entry.Over == query.VarWitness {
				add(side.Entry.Attr)
			}
		case query.KindEntrySet:
			if side.Form == query.SetOfEntry && side.Entry.Over == query.VarWitness {
				add(side.Entry.Attr)
			}
		}
	}
	if len(out) == 0 {
		out = []string{""} // still track the witness count for count($2)>0 fallbacks
	}
	return out
}

// specIndex returns the position of attr in specs.
func specIndex(specs []string, attr string) int {
	for i, s := range specs {
		if s == attr {
			return i
		}
	}
	return -1
}

// setAccs tracks the entry-set accumulators of an aggregate selection:
// one per side that is an entry-set aggregate, plus the count of R1.
type setAccs struct {
	acc [2]aggStats // folded inner entry-aggregate values, per side
	n1  int64       // count($1) / count($$): |R1|
}

// foldSelf folds the self-based (non-witness) entry-set sides for one
// R1 entry; used by the pre-pass of simple aggregate selection and
// phase 2a of structural operators.
func (sa *setAccs) foldSelf(sel *query.AggSel, e model.Attrs) {
	if sel == nil {
		return
	}
	for i, side := range []query.AggAttr{sel.Left, sel.Right} {
		if side.Kind != query.KindEntrySet || side.Form != query.SetOfEntry {
			continue
		}
		if side.Entry.Over != query.VarSelf {
			continue
		}
		inner := foldEntryValues(e, side.Entry.Attr)
		if v, ok := inner.value(side.Entry.Fn); ok {
			sa.acc[i].addValue(v)
		}
	}
}

// foldWitness folds the witness-based entry-set sides for one R1 entry
// whose per-spec witness statistics are known (at finalize time in the
// stack pass or at join time in the ER pass).
func (sa *setAccs) foldWitness(sel *query.AggSel, specs []string, wstats []aggStats) {
	if sel == nil {
		return
	}
	for i, side := range []query.AggAttr{sel.Left, sel.Right} {
		if side.Kind != query.KindEntrySet || side.Form != query.SetOfEntry {
			continue
		}
		if side.Entry.Over != query.VarWitness {
			continue
		}
		si := specIndex(specs, side.Entry.Attr)
		if si < 0 {
			continue
		}
		if v, ok := wstats[si].value(side.Entry.Fn); ok {
			sa.acc[i].addValue(v)
		}
	}
}

// needsSelfPrePass reports whether the selection has a self-based
// entry-set side, requiring an extra scan of R1 before selection.
func needsSelfPrePass(sel *query.AggSel) bool {
	if sel == nil {
		return false
	}
	for _, side := range []query.AggAttr{sel.Left, sel.Right} {
		if side.Kind == query.KindEntrySet && side.Form == query.SetOfEntry &&
			side.Entry.Over == query.VarSelf {
			return true
		}
	}
	return false
}

// evalSide evaluates one aggregate attribute for an R1 entry. wstats
// holds the entry's witness statistics per spec (nil when the operator
// has no witness notion, i.e. simple aggregate selection).
func evalSide(sideIdx int, side query.AggAttr, e model.Attrs, specs []string, wstats []aggStats, sa *setAccs) (int64, bool) {
	switch side.Kind {
	case query.KindConst:
		return side.Const, true
	case query.KindEntry:
		if side.Entry.Over == query.VarWitness {
			si := specIndex(specs, side.Entry.Attr)
			if si < 0 || wstats == nil {
				return 0, false
			}
			return wstats[si].value(side.Entry.Fn)
		}
		return foldEntryValues(e, side.Entry.Attr).value(side.Entry.Fn)
	default: // KindEntrySet
		switch side.Form {
		case query.SetCount1, query.SetCountAll:
			return sa.n1, true
		default:
			return sa.acc[sideIdx].value(side.OuterFn)
		}
	}
}

// evalAggSel applies the selection condition to one R1 entry. A nil
// selection is the count($2) > 0 of the plain hierarchical operators.
func evalAggSel(sel *query.AggSel, e model.Attrs, specs []string, wstats []aggStats, sa *setAccs) bool {
	if sel == nil {
		si := specIndex(specs, "")
		return si >= 0 && wstats != nil && wstats[si].count > 0
	}
	lv, lok := evalSide(0, sel.Left, e, specs, wstats, sa)
	rv, rok := evalSide(1, sel.Right, e, specs, wstats, sa)
	if !lok || !rok {
		return false
	}
	return sel.Op.Compare(lv, rv)
}
