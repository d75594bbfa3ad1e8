// Package query defines the abstract syntax of the query languages of
// "Querying Network Directories": the LDAP baseline and the strict
// hierarchy L0 ⊂ L1 ⊂ L2 ⊂ L3 given by the grammars of Figures 7–10,
// together with a parser for the paper's surface syntax, printers, a
// language classifier, and schema validation.
//
// Every query denotes a function from a directory instance to a sub-
// instance: a set of directory entries (Section 4.1). The concrete
// evaluation algorithms live in internal/engine.
package query

import (
	"fmt"
	"strings"

	"repro/internal/filter"
	"repro/internal/model"
)

// Language identifies the smallest language of the paper's hierarchy
// that contains a query (Theorem 8.1: LDAP ⊊ L0 ⊊ L1 ⊊ L2 ⊊ L3).
type Language int

// The languages, in increasing expressive power.
const (
	LangLDAP Language = iota // single base+scope, boolean filter
	LangL0                   // atomic queries + boolean set operators (Fig 7)
	LangL1                   // + hierarchical selection (Fig 8)
	LangL2                   // + aggregate selection (Fig 9)
	LangL3                   // + embedded references (Fig 10)
)

func (l Language) String() string {
	switch l {
	case LangLDAP:
		return "LDAP"
	case LangL0:
		return "L0"
	case LangL1:
		return "L1"
	case LangL2:
		return "L2"
	case LangL3:
		return "L3"
	default:
		return fmt.Sprintf("Language(%d)", int(l))
	}
}

// Scope is the search scope of an atomic query (Section 4.1).
type Scope uint8

// The three scopes: only the base entry; the base entry and its
// children; the base entry and all its descendants.
const (
	ScopeBase Scope = iota
	ScopeOne
	ScopeSub
)

func (s Scope) String() string {
	switch s {
	case ScopeBase:
		return "base"
	case ScopeOne:
		return "one"
	case ScopeSub:
		return "sub"
	default:
		return "?"
	}
}

// ParseScope parses "base", "one" or "sub".
func ParseScope(s string) (Scope, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "base":
		return ScopeBase, nil
	case "one":
		return ScopeOne, nil
	case "sub":
		return ScopeSub, nil
	default:
		return 0, fmt.Errorf("query: unknown scope %q", s)
	}
}

// Query is a node of a directory query tree.
type Query interface {
	// String renders the query in the paper's surface syntax.
	String() string
	// Language returns the smallest language containing this query.
	Language() Language
	// Subqueries returns the operand queries, outermost first.
	Subqueries() []Query
}

// Atomic is an atomic query (B ? Scope ? F) — Definition 4.1. Its filter
// is a single atomic comparison; this is the leaf of every L0..L3 query.
type Atomic struct {
	Base   model.DN
	Scope  Scope
	Filter *filter.Atom
}

func (q *Atomic) String() string {
	return fmt.Sprintf("(%s ? %s ? %s)", q.Base, q.Scope, q.Filter)
}

// Language returns L0: atomic queries are the base case of Fig 7.
func (q *Atomic) Language() Language { return LangL0 }

// Subqueries returns nil.
func (q *Atomic) Subqueries() []Query { return nil }

// LDAP is the paper's formalization of the LDAP query language
// (Section 4.2): one base entry, one scope, and a boolean combination of
// atomic *filters* (not queries). It is not itself a node of L0..L3; it
// exists as the baseline for the expressiveness and evaluation
// comparisons of Section 8.
type LDAP struct {
	Base   model.DN
	Scope  Scope
	Filter filter.Filter
}

func (q *LDAP) String() string {
	return fmt.Sprintf("(%s ? %s ? %s)", q.Base, q.Scope, q.Filter)
}

// Language returns LangLDAP.
func (q *LDAP) Language() Language { return LangLDAP }

// Subqueries returns nil.
func (q *LDAP) Subqueries() []Query { return nil }

// BoolOp is a set-level boolean operator of L0 (Fig 7).
type BoolOp uint8

// The L0 boolean operators: intersection, union, difference. Note LDAP
// has filter-level not (!) but no query-level difference; Example 4.1
// exploits this gap.
const (
	OpAnd BoolOp = iota
	OpOr
	OpDiff
)

func (o BoolOp) String() string {
	switch o {
	case OpAnd:
		return "&"
	case OpOr:
		return "|"
	case OpDiff:
		return "-"
	default:
		return "?"
	}
}

// Bool is a binary boolean query (& Q1 Q2), (| Q1 Q2) or (- Q1 Q2).
type Bool struct {
	Op BoolOp
	Q1 Query
	Q2 Query
}

func (q *Bool) String() string {
	return fmt.Sprintf("(%s %s %s)", q.Op, q.Q1, q.Q2)
}

// Language returns the maximum of L0 and the operands' languages.
func (q *Bool) Language() Language { return maxLang(LangL0, q.Q1, q.Q2) }

// Subqueries returns the two operands.
func (q *Bool) Subqueries() []Query { return []Query{q.Q1, q.Q2} }

// HierOp is a hierarchical selection operator of L1 (Fig 8).
type HierOp uint8

// The six hierarchical selection operators of Definition 5.1.
const (
	OpParents HierOp = iota
	OpChildren
	OpAncestors
	OpDescendants
	OpAncestorsC   // path-constrained ancestors (ternary)
	OpDescendantsC // path-constrained descendants (ternary)
)

func (o HierOp) String() string {
	switch o {
	case OpParents:
		return "p"
	case OpChildren:
		return "c"
	case OpAncestors:
		return "a"
	case OpDescendants:
		return "d"
	case OpAncestorsC:
		return "ac"
	case OpDescendantsC:
		return "dc"
	default:
		return "?"
	}
}

// Ternary reports whether the operator takes a third (path-constraint)
// operand.
func (o HierOp) Ternary() bool { return o == OpAncestorsC || o == OpDescendantsC }

// Hier is a hierarchical selection query, optionally carrying an
// aggregate selection filter (the structural aggregate selection of
// Section 6.2, which makes it an L2 node). Q3 is nil unless the operator
// is ternary.
type Hier struct {
	Op     HierOp
	Q1, Q2 Query
	Q3     Query // ac/dc only
	AggSel *AggSel
}

func (q *Hier) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s %s %s", q.Op, q.Q1, q.Q2)
	if q.Q3 != nil {
		fmt.Fprintf(&b, " %s", q.Q3)
	}
	if q.AggSel != nil {
		fmt.Fprintf(&b, " %s", q.AggSel)
	}
	b.WriteByte(')')
	return b.String()
}

// Language returns L1 (plain hierarchical selection) or L2 (with an
// aggregate selection filter), joined with the operands' languages.
func (q *Hier) Language() Language {
	base := LangL1
	if q.AggSel != nil {
		base = LangL2
	}
	if q.Q3 != nil {
		return maxLang(base, q.Q1, q.Q2, q.Q3)
	}
	return maxLang(base, q.Q1, q.Q2)
}

// Subqueries returns the operands.
func (q *Hier) Subqueries() []Query {
	if q.Q3 != nil {
		return []Query{q.Q1, q.Q2, q.Q3}
	}
	return []Query{q.Q1, q.Q2}
}

// SimpleAgg is the simple aggregate selection query (g Q AggSelFilter) of
// Section 6 — an L2 node.
type SimpleAgg struct {
	Q      Query
	AggSel *AggSel
}

func (q *SimpleAgg) String() string {
	return fmt.Sprintf("(g %s %s)", q.Q, q.AggSel)
}

// Language returns L2 joined with the operand's language.
func (q *SimpleAgg) Language() Language { return maxLang(LangL2, q.Q) }

// Subqueries returns the single operand.
func (q *SimpleAgg) Subqueries() []Query { return []Query{q.Q} }

// RefOp is an embedded reference operator of L3 (Fig 10).
type RefOp uint8

// The two symmetric embedded-reference operators of Section 7: valueDN
// selects entries of Q1 whose Attr holds the DN of a Q2 entry; DNvalue
// selects entries of Q1 whose DN is held in the Attr of a Q2 entry.
const (
	OpValueDN RefOp = iota
	OpDNValue
)

func (o RefOp) String() string {
	if o == OpValueDN {
		return "vd"
	}
	return "dv"
}

// EmbedRef is an embedded reference query, optionally with aggregate
// selection over the witness sets (Definition 7.1).
type EmbedRef struct {
	Op     RefOp
	Q1, Q2 Query
	Attr   string
	AggSel *AggSel
}

func (q *EmbedRef) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "(%s %s %s %s", q.Op, q.Q1, q.Q2, q.Attr)
	if q.AggSel != nil {
		fmt.Fprintf(&b, " %s", q.AggSel)
	}
	b.WriteByte(')')
	return b.String()
}

// Language returns L3 joined with the operands' languages.
func (q *EmbedRef) Language() Language { return maxLang(LangL3, q.Q1, q.Q2) }

// Subqueries returns the two operands.
func (q *EmbedRef) Subqueries() []Query { return []Query{q.Q1, q.Q2} }

func maxLang(base Language, qs ...Query) Language {
	for _, q := range qs {
		if l := q.Language(); l > base {
			base = l
		}
	}
	return base
}

// Walk visits q and every descendant query node in preorder.
func Walk(q Query, fn func(Query)) {
	fn(q)
	for _, c := range q.Subqueries() {
		Walk(c, fn)
	}
}

// Size returns the number of nodes in the query tree — the |Q| of
// Theorems 8.3 and 8.4.
func Size(q Query) int {
	n := 0
	Walk(q, func(Query) { n++ })
	return n
}
