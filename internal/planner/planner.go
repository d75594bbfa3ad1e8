// Package planner applies algebraic rewrites to L0–L3 query trees
// before evaluation. The paper's engine evaluates query trees bottom-up
// exactly as written (Section 8.2); these rewrites exploit the
// namespace structure the same way an administrator would when writing
// the query by hand:
//
//   - scope narrowing: an intersection of sub-scoped atomic queries is
//     confined to the deeper of the two bases (their subtrees nest or
//     are disjoint — DNs form a forest);
//   - disjointness: intersections of disjoint subtrees are empty, and
//     subtracting a disjoint subtree is a no-op;
//   - idempotence: (& Q Q) = (| Q Q) = Q, (- Q Q) = ∅;
//   - the Section 8.1 encoding run backwards: (ac Q1 Q2 all-entries)
//     is exactly (p Q1 Q2) on strict forests (every non-root entry's
//     parent present), and its whole-instance third operand is the
//     expensive part — Experiment E12 measures the gap.
//
// Rewrites preserve answers exactly; the planner tests verify this
// against the unoptimized engine on randomized instances.
package planner

import (
	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/query"
)

// Info describes instance properties a rewrite may rely on.
type Info struct {
	// StrictForest asserts every non-root entry's parent is present
	// (model.Instance.Validate(true)); enables the ac/dc collapse.
	StrictForest bool
}

// Result is an optimization outcome: the rewritten query and the names
// of the rules that fired, in application order.
type Result struct {
	Query query.Query
	Rules []string
}

// Optimize rewrites q to fixpoint.
func Optimize(q query.Query, info Info) Result {
	res := Result{Query: q}
	for i := 0; i < 10; i++ { // fixpoint with a safety bound
		before := res.Query.String()
		res.Query = rewrite(res.Query, info, &res.Rules)
		if res.Query.String() == before {
			break
		}
	}
	return res
}

func rewrite(q query.Query, info Info, rules *[]string) query.Query {
	switch n := q.(type) {
	case *query.Atomic, *query.LDAP:
		return q
	case *query.Bool:
		b := &query.Bool{Op: n.Op, Q1: rewrite(n.Q1, info, rules), Q2: rewrite(n.Q2, info, rules)}
		return rewriteBool(b, rules)
	case *query.Hier:
		h := &query.Hier{Op: n.Op, Q1: rewrite(n.Q1, info, rules), Q2: rewrite(n.Q2, info, rules), AggSel: n.AggSel}
		if n.Q3 != nil {
			h.Q3 = rewrite(n.Q3, info, rules)
		}
		return rewriteHier(h, info, rules)
	case *query.SimpleAgg:
		return &query.SimpleAgg{Q: rewrite(n.Q, info, rules), AggSel: n.AggSel}
	case *query.EmbedRef:
		return &query.EmbedRef{Op: n.Op, Q1: rewrite(n.Q1, info, rules), Q2: rewrite(n.Q2, info, rules),
			Attr: n.Attr, AggSel: n.AggSel}
	default:
		return q
	}
}

func rewriteBool(b *query.Bool, rules *[]string) query.Query {
	// emptyLike's constant shares one probe pointer between its operands
	// (a parsed (- Q Q) never does): it is already minimal, and
	// rewriting it again would report a rule the user's query never hit.
	if b.Op == query.OpDiff && b.Q1 == b.Q2 {
		return b
	}
	// Idempotence / contradiction on syntactically identical operands.
	if b.Q1.String() == b.Q2.String() {
		switch b.Op {
		case query.OpAnd, query.OpOr:
			*rules = append(*rules, "idempotent-"+b.Op.String())
			return b.Q1
		case query.OpDiff:
			*rules = append(*rules, "self-difference")
			return emptyLike(b.Q1)
		}
	}
	a1, ok1 := b.Q1.(*query.Atomic)
	a2, ok2 := b.Q2.(*query.Atomic)
	if !ok1 || !ok2 || a1.Scope != query.ScopeSub || a2.Scope != query.ScopeSub {
		return b
	}
	rel := relate(a1.Base, a2.Base)
	switch b.Op {
	case query.OpAnd:
		switch rel {
		case relDisjoint:
			*rules = append(*rules, "and-disjoint-empty")
			return emptyLike(b.Q1)
		case relFirstDeeper: // base1 under base2: narrow a2 to base1
			// Moving a knn filter to a deeper base would shrink its
			// candidate set and change its top-k answer — knn is a
			// property of the whole scoped set, not a per-entry
			// predicate, so it must stay at its declared scope.
			if a2.Filter.Op == filter.OpKNN {
				return b
			}
			*rules = append(*rules, "and-narrow-scope")
			return &query.Bool{Op: query.OpAnd, Q1: a1,
				Q2: &query.Atomic{Base: a1.Base, Scope: query.ScopeSub, Filter: a2.Filter}}
		case relSecondDeeper:
			if a1.Filter.Op == filter.OpKNN {
				return b
			}
			*rules = append(*rules, "and-narrow-scope")
			return &query.Bool{Op: query.OpAnd,
				Q1: &query.Atomic{Base: a2.Base, Scope: query.ScopeSub, Filter: a1.Filter},
				Q2: a2}
		}
	case query.OpDiff:
		if rel == relDisjoint {
			*rules = append(*rules, "diff-disjoint-noop")
			return a1
		}
	}
	return b
}

func rewriteHier(h *query.Hier, info Info, rules *[]string) query.Query {
	if !info.StrictForest || h.Q3 == nil {
		return h
	}
	// (ac Q1 Q2 ALL) = (p Q1 Q2) and (dc Q1 Q2 ALL) = (c Q1 Q2) on
	// strict forests: the whole instance blocks everything beyond the
	// immediate relative. Aggregate selections carry over unchanged —
	// the witness sets coincide.
	if !coversAllEntries(h.Q3) {
		return h
	}
	switch h.Op {
	case query.OpAncestorsC:
		*rules = append(*rules, "ac-all-to-p")
		return &query.Hier{Op: query.OpParents, Q1: h.Q1, Q2: h.Q2, AggSel: h.AggSel}
	case query.OpDescendantsC:
		*rules = append(*rules, "dc-all-to-c")
		return &query.Hier{Op: query.OpChildren, Q1: h.Q1, Q2: h.Q2, AggSel: h.AggSel}
	}
	return h
}

// coversAllEntries recognizes the Section 8.1 whole-instance operand:
// a null-dn sub query whose filter every entry satisfies (a presence
// test on objectClass, which Definition 3.2 makes universal).
func coversAllEntries(q query.Query) bool {
	a, ok := q.(*query.Atomic)
	if !ok {
		return false
	}
	return len(a.Base) == 0 && a.Scope == query.ScopeSub &&
		a.Filter.Op == filter.OpPresent && a.Filter.Attr == model.ObjectClass
}

type relation int

const (
	relDisjoint relation = iota
	relEqual
	relFirstDeeper  // base1 inside base2's subtree
	relSecondDeeper // base2 inside base1's subtree
)

func relate(b1, b2 model.DN) relation {
	switch {
	case b1.Equal(b2):
		return relEqual
	case b2.IsAncestorOf(b1) || len(b2) == 0:
		return relFirstDeeper
	case b1.IsAncestorOf(b2) || len(b1) == 0:
		return relSecondDeeper
	default:
		return relDisjoint
	}
}

// emptyLike builds a constant-empty query that costs O(1) pages: a
// base-scoped self-difference at q's shallowest base. Both operands are
// the same pointer, which is how rewriteBool recognizes the constant.
func emptyLike(q query.Query) query.Query {
	base := model.DN(nil)
	if a, ok := q.(*query.Atomic); ok {
		base = a.Base
	}
	probe := &query.Atomic{Base: base, Scope: query.ScopeBase, Filter: filter.Present(model.ObjectClass)}
	return &query.Bool{Op: query.OpDiff, Q1: probe, Q2: probe}
}
