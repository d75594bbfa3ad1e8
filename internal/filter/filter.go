// Package filter implements the atomic filters of Section 4.1 of
// "Querying Network Directories" and, for the LDAP baseline language,
// RFC 2254-style composite filters (boolean combinations of atomic
// filters evaluated against a single entry).
//
// A directory entry satisfies an atomic filter if at least one of its
// (attribute, value) pairs satisfies it:
//
//	r |= a=*   iff  exists v. (a, v) in val(r)                 (presence)
//	r |= a<v1  iff  tau(a)=int and exists v2. (a,v2) in val(r), v2<v1
//	r |= a=p   iff  tau(a)=string and some value matches the wildcard
//	               pattern p (substring per RFC 2254), or the value/
//	               pattern are equal for int and dn attributes.
package filter

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Op is the comparison operator of an atomic filter.
type Op uint8

// Comparison operators. OpPresent is the `a=*` test; OpEq covers both
// exact equality and wildcard string matching (the pattern may contain
// '*').
const (
	OpInvalid Op = iota
	OpPresent
	OpEq
	OpLT
	OpLE
	OpGT
	OpGE
	OpApprox // ~= treated as case-insensitive equality
	OpKNN    // knn(attr, [v1,...], k): k nearest neighbors by L2 distance
)

func (o Op) String() string {
	switch o {
	case OpPresent:
		return "=*"
	case OpEq:
		return "="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpApprox:
		return "~="
	case OpKNN:
		return "knn"
	default:
		return "?"
	}
}

// Filter is a predicate over a single directory entry. Atomic filters and
// (for LDAP) boolean combinations implement it.
type Filter interface {
	// Matches reports r |= F under schema s.
	Matches(s *model.Schema, r model.Attrs) bool
	// String renders the filter in the paper's surface syntax.
	String() string
	// Atomic reports whether the filter is a single atomic comparison
	// (the only kind admitted inside L0..L3 atomic queries).
	Atomic() bool
}

// Atom is an atomic filter: one attribute, one operator, one operand.
// For OpKNN the operand is the query vector Vec plus the neighbor count
// K, and the filter is not a per-entry predicate: it selects the K
// entries of the scoped candidate set nearest to Vec (squared L2,
// ties broken by reverse-DN key). Matches then only reports candidacy —
// whether the entry carries a vector of the right dimension.
type Atom struct {
	Attr    string
	Op      Op
	Operand string // textual operand; for OpEq on strings may hold '*'
	Vec     []float32
	K       int
	pattern []string
	isPat   bool
	intVal  int64
	isInt   bool
}

// NewAtom builds an atomic filter. The operand is interpreted lazily
// against the schema at match time, but wildcard/integer forms are
// pre-parsed here for speed.
func NewAtom(attr string, op Op, operand string) *Atom {
	a := &Atom{Attr: model.NormalizeAttr(attr), Op: op, Operand: operand}
	if a.Attr == model.ObjectClass {
		// Class names are case-insensitive and stored normalized.
		operand = strings.ToLower(operand)
		a.Operand = operand
	}
	if strings.Contains(operand, "*") && op == OpEq {
		a.isPat = true
		a.pattern = strings.Split(operand, "*")
	}
	if s := strings.TrimSpace(operand); decimal(s) {
		if iv, err := strconv.ParseInt(s, 10, 64); err == nil {
			a.intVal, a.isInt = iv, true
		}
	}
	return a
}

// decimal reports whether s has the shape strconv.ParseInt accepts in
// base 10, an optional sign and digits, so that a non-numeric operand
// costs no error value.
func decimal(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// Present returns the presence filter attr=*.
func Present(attr string) *Atom { return NewAtom(attr, OpPresent, "") }

// Eq returns the equality/wildcard filter attr=operand.
func Eq(attr, operand string) *Atom { return NewAtom(attr, OpEq, operand) }

// MaxKNNK bounds the neighbor count a knn filter may request; it keeps
// hostile query text from demanding absurd result sets.
const MaxKNNK = 1 << 20

// NewKNN builds the k-nearest-neighbor filter knn(attr, vec, k). The
// vector is copied. Dimension agreement with the schema is checked at
// query validation time, not here.
func NewKNN(attr string, vec []float32, k int) *Atom {
	cp := make([]float32, len(vec))
	copy(cp, vec)
	return &Atom{Attr: model.NormalizeAttr(attr), Op: OpKNN, Vec: cp, K: k}
}

// Atomic reports true.
func (a *Atom) Atomic() bool { return true }

func (a *Atom) String() string {
	if a.Op == OpPresent {
		return a.Attr + "=*"
	}
	if a.Op == OpKNN {
		return "knn(" + a.Attr + "," + model.FormatVector(a.Vec) + "," + strconv.Itoa(a.K) + ")"
	}
	return a.Attr + a.Op.String() + a.Operand
}

// Matches implements the satisfaction relation r |= F of Section 4.1.
// For OpKNN it reports candidacy only (see Atom); true top-k selection
// happens in the store's evaluation, which sees the whole candidate set.
func (a *Atom) Matches(s *model.Schema, r model.Attrs) bool {
	if a.Op == OpPresent {
		return r.Has(a.Attr)
	}
	if a.Op == OpKNN {
		for _, v := range r.Values(a.Attr) {
			if v.Kind() == model.KindVector && len(v.Vec()) == len(a.Vec) {
				return true
			}
		}
		return false
	}
	t, ok := s.AttrType(a.Attr)
	if !ok {
		return false
	}
	for _, v := range r.Values(a.Attr) {
		if a.matchValue(t, v) {
			return true
		}
	}
	return false
}

func (a *Atom) matchValue(t model.TypeName, v model.Value) bool {
	switch model.TypeKind(t) {
	case model.KindInt:
		if !a.isInt {
			return false
		}
		x := v.Int()
		switch a.Op {
		case OpEq, OpApprox:
			return x == a.intVal
		case OpLT:
			return x < a.intVal
		case OpLE:
			return x <= a.intVal
		case OpGT:
			return x > a.intVal
		case OpGE:
			return x >= a.intVal
		}
		return false
	case model.KindDN:
		if a.Op != OpEq && a.Op != OpApprox {
			return false
		}
		want, err := model.ParseDN(a.Operand)
		if err != nil {
			return false
		}
		return v.DN().Equal(want)
	case model.KindVector:
		if a.Op != OpEq && a.Op != OpApprox {
			return false
		}
		want, err := model.ParseVector(a.Operand)
		if err != nil {
			return false
		}
		return v.Equal(model.VectorValue(want))
	default: // string
		sv := v.Str()
		switch a.Op {
		case OpEq:
			if a.isPat {
				return WildcardMatch(a.pattern, sv)
			}
			return sv == a.Operand
		case OpApprox:
			return strings.EqualFold(sv, a.Operand)
		case OpLT:
			return sv < a.Operand
		case OpLE:
			return sv <= a.Operand
		case OpGT:
			return sv > a.Operand
		case OpGE:
			return sv >= a.Operand
		}
		return false
	}
}

// WildcardMatch reports whether s matches the pattern whose literal
// segments (the pieces between '*'s, as produced by strings.Split on "*")
// are given. An empty leading/trailing segment corresponds to a
// leading/trailing '*'.
func WildcardMatch(segments []string, s string) bool {
	if len(segments) == 0 {
		return s == ""
	}
	if len(segments) == 1 {
		return s == segments[0]
	}
	if !strings.HasPrefix(s, segments[0]) {
		return false
	}
	s = s[len(segments[0]):]
	last := segments[len(segments)-1]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for _, seg := range segments[1 : len(segments)-1] {
		if seg == "" {
			continue
		}
		i := strings.Index(s, seg)
		if i < 0 {
			return false
		}
		s = s[i+len(seg):]
	}
	return true
}

// And, Or, Not are the boolean combinations admitted in LDAP filters
// (Section 4.2 notes LDAP combines *filters*, not queries, with &, |, !).
type And []Filter

// Or is the disjunction of its operand filters.
type Or []Filter

// Not negates its operand filter.
type Not struct{ F Filter }

// Atomic reports false for composite filters.
func (f And) Atomic() bool { return false }

// Atomic reports false for composite filters.
func (f Or) Atomic() bool { return false }

// Atomic reports false for composite filters.
func (f Not) Atomic() bool { return false }

// Matches reports whether every conjunct matches.
func (f And) Matches(s *model.Schema, r model.Attrs) bool {
	for _, c := range f {
		if !c.Matches(s, r) {
			return false
		}
	}
	return true
}

// Matches reports whether any disjunct matches.
func (f Or) Matches(s *model.Schema, r model.Attrs) bool {
	for _, c := range f {
		if c.Matches(s, r) {
			return true
		}
	}
	return false
}

// Matches reports whether the operand does not match.
func (f Not) Matches(s *model.Schema, r model.Attrs) bool {
	return !f.F.Matches(s, r)
}

func (f And) String() string { return compositeString("&", f) }
func (f Or) String() string  { return compositeString("|", f) }
func (f Not) String() string { return "(!" + f.F.String() + ")" }

func compositeString(op string, fs []Filter) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(op)
	for _, f := range fs {
		if f.Atomic() {
			b.WriteByte('(')
			b.WriteString(f.String())
			b.WriteByte(')')
		} else {
			b.WriteString(f.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}

// ErrParse reports a malformed filter string.
var ErrParse = errors.New("filter: parse error")

// Parse parses a filter in RFC 2254-ish syntax:
//
//	(&(objectClass=QHP)(priority<=2))
//	(|(surName=jagadish)(surName=jag*))
//	(!(telephoneNumber=*))
//	surName=jagadish            (bare atomic, no parens)
//
// Operators: = (with '*' wildcards), <, <=, >, >=, ~=, and presence =*.
func Parse(s string) (Filter, error) {
	p := &parser{s: strings.TrimSpace(s)}
	f, err := p.parse()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i != len(p.s) {
		return nil, fmt.Errorf("%w: trailing input %q", ErrParse, p.s[p.i:])
	}
	return f, nil
}

// ParseAtom parses a single atomic filter (no parens, no boolean
// operators) — the only filter form the L0..L3 grammars admit inside an
// atomic query.
func ParseAtom(s string) (*Atom, error) {
	f, err := Parse(s)
	if err != nil {
		return nil, err
	}
	a, ok := f.(*Atom)
	if !ok {
		return nil, fmt.Errorf("%w: %q is not an atomic filter", ErrParse, s)
	}
	return a, nil
}

type parser struct {
	s string
	i int
}

func (p *parser) skipSpace() {
	for p.i < len(p.s) && (p.s[p.i] == ' ' || p.s[p.i] == '\t') {
		p.i++
	}
}

func (p *parser) parse() (Filter, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return nil, fmt.Errorf("%w: empty filter", ErrParse)
	}
	if p.s[p.i] != '(' {
		// Bare atomic form. Parens balance so that bare knn(...) — whose
		// argument list is parenthesized — consumes through its own
		// closing paren rather than stopping at it.
		start := p.i
		depth := 0
		for p.i < len(p.s) {
			switch p.s[p.i] {
			case '(':
				depth++
			case ')':
				if depth == 0 {
					return parseAtomText(p.s[start:p.i])
				}
				depth--
			}
			p.i++
		}
		return parseAtomText(p.s[start:p.i])
	}
	p.i++ // consume '('
	p.skipSpace()
	if p.i >= len(p.s) {
		return nil, fmt.Errorf("%w: unterminated filter", ErrParse)
	}
	switch p.s[p.i] {
	case '&', '|':
		op := p.s[p.i]
		p.i++
		var kids []Filter
		for {
			p.skipSpace()
			if p.i < len(p.s) && p.s[p.i] == ')' {
				p.i++
				break
			}
			k, err := p.parse()
			if err != nil {
				return nil, err
			}
			kids = append(kids, k)
		}
		if len(kids) == 0 {
			return nil, fmt.Errorf("%w: empty boolean filter", ErrParse)
		}
		if op == '&' {
			return And(kids), nil
		}
		return Or(kids), nil
	case '!':
		p.i++
		k, err := p.parse()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.i >= len(p.s) || p.s[p.i] != ')' {
			return nil, fmt.Errorf("%w: expected ')' after !", ErrParse)
		}
		p.i++
		return Not{F: k}, nil
	default:
		start := p.i
		depth := 0
		for p.i < len(p.s) {
			if p.s[p.i] == '(' {
				depth++
			}
			if p.s[p.i] == ')' {
				if depth == 0 {
					break
				}
				depth--
			}
			p.i++
		}
		if p.i >= len(p.s) {
			return nil, fmt.Errorf("%w: unterminated atom", ErrParse)
		}
		a, err := parseAtomText(p.s[start:p.i])
		if err != nil {
			return nil, err
		}
		p.i++ // consume ')'
		return a, nil
	}
}

func parseAtomText(s string) (*Atom, error) {
	s = strings.TrimSpace(s)
	// The knn(...) function form is recognized before the binary
	// operators — its argument list contains no top-level operator, and
	// its parens would otherwise trip the reserved-character check.
	if len(s) >= 4 && strings.EqualFold(s[:4], "knn(") {
		return parseKNNText(s)
	}
	// Longest operators first. A candidate split only counts when the
	// left side is a well-formed attribute name; otherwise the next
	// operator gets a chance (so "a=b<c" splits at '=', not '<').
	for _, cand := range []struct {
		text string
		op   Op
	}{
		{"<=", OpLE}, {">=", OpGE}, {"~=", OpApprox}, {"<", OpLT}, {">", OpGT}, {"=", OpEq},
	} {
		i := strings.Index(s, cand.text)
		if i <= 0 {
			continue
		}
		attr := strings.TrimSpace(s[:i])
		if !validAttrName(attr) {
			continue
		}
		operand := strings.TrimSpace(s[i+len(cand.text):])
		if strings.ContainsAny(operand, "()?") {
			// The renderer does not escape, so parens in an operand
			// produce a string that cannot re-parse, and '?' collides
			// with the query language's base?scope?filter separator.
			return nil, fmt.Errorf("%w: reserved character in operand %q", ErrParse, operand)
		}
		if (cand.op == OpLT || cand.op == OpGT) && strings.HasPrefix(operand, "=") {
			// "a< =b" would render as "a<=b" and re-parse as OpLE.
			return nil, fmt.Errorf("%w: ambiguous operand %q after %q", ErrParse, operand, cand.text)
		}
		if cand.op == OpEq && operand == "*" {
			return Present(attr), nil
		}
		if operand == "" && cand.op != OpEq {
			return nil, fmt.Errorf("%w: missing operand in %q", ErrParse, s)
		}
		return NewAtom(attr, cand.op, operand), nil
	}
	return nil, fmt.Errorf("%w: no atomic filter in %q", ErrParse, s)
}

// parseKNNText parses "knn(attr,[v1,...],k)". The argument list splits
// at commas outside the vector's brackets; the vector follows the model
// text form (finite float32 components), and k must be a positive
// integer no larger than MaxKNNK.
func parseKNNText(s string) (*Atom, error) {
	if !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("%w: unterminated knn filter %q", ErrParse, s)
	}
	inner := s[4 : len(s)-1]
	var args []string
	depth, start := 0, 0
	for i := 0; i < len(inner); i++ {
		switch inner[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, inner[start:i])
				start = i + 1
			}
		}
	}
	args = append(args, inner[start:])
	if len(args) != 3 {
		return nil, fmt.Errorf("%w: knn wants (attr,vector,k), got %d argument(s) in %q", ErrParse, len(args), s)
	}
	attr := strings.TrimSpace(args[0])
	if !validAttrName(attr) {
		return nil, fmt.Errorf("%w: bad attribute %q in knn filter", ErrParse, attr)
	}
	vec, err := model.ParseVector(args[1])
	if err != nil {
		return nil, fmt.Errorf("%w: knn vector: %v", ErrParse, err)
	}
	kText := strings.TrimSpace(args[2])
	k, err := strconv.Atoi(kText)
	if err != nil || k < 1 || k > MaxKNNK || strconv.Itoa(k) != kText {
		return nil, fmt.Errorf("%w: knn count %q (want 1..%d)", ErrParse, args[2], MaxKNNK)
	}
	return NewKNN(attr, vec, k), nil
}

// validAttrName restricts attribute names to LDAP attribute-description
// shape: letters, digits, '-', '_', '.' and ';'. Without this check the
// parser accepts garbage like "((=))" (attribute "(") and then renders
// filters that do not re-parse.
func validAttrName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.', c == ';':
		default:
			return false
		}
	}
	return true
}
