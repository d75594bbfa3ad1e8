package model

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// AVA is an (attribute, value) pair as it appears inside a relative
// distinguished name. DN values are textual: RDN components compare by
// their string form, matching the paper's string representation of
// distinguished names (Section 3.2, [31]).
type AVA struct {
	Attr  string
	Value string
}

// RDN is a relative distinguished name: a non-empty set of (attribute,
// value) pairs distinguishing an entry among its siblings (Definition
// 3.2(d)). The common case, as in all the paper's figures, is a single
// pair, but the model allows any set.
type RDN []AVA

// DN is a distinguished name: the sequence s1, ..., sn of RDNs, leaf
// first. dn[0] is the entry's own RDN; dn[len-1] is the root RDN.
// A nil/empty DN denotes the (virtual) forest root, the "null-dn" used in
// Section 8.1.
type DN []RDN

// NormalizeAttr canonicalizes an attribute name for comparison. LDAP
// attribute names are case-insensitive; values are not.
func NormalizeAttr(a string) string { return strings.ToLower(strings.TrimSpace(a)) }

// normalized returns a copy of the RDN with attribute names lower-cased
// and the AVAs sorted, giving set semantics a canonical order.
func (r RDN) normalized() RDN {
	out := make(RDN, len(r))
	for i, ava := range r {
		out[i] = AVA{Attr: NormalizeAttr(ava.Attr), Value: ava.Value}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Attr != out[j].Attr {
			return out[i].Attr < out[j].Attr
		}
		return out[i].Value < out[j].Value
	})
	return out
}

// String renders the RDN: pairs joined by '+', "attr=value".
func (r RDN) String() string {
	var b strings.Builder
	for i, ava := range r {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(ava.Attr)
		b.WriteByte('=')
		b.WriteString(escapeDNValue(ava.Value))
	}
	return b.String()
}

// Equal reports set equality of two RDNs (attribute names
// case-insensitive).
func (r RDN) Equal(s RDN) bool {
	if len(r) != len(s) {
		return false
	}
	rn, sn := r.normalized(), s.normalized()
	for i := range rn {
		if rn[i] != sn[i] {
			return false
		}
	}
	return true
}

// String renders the DN in the paper's (and RFC 2253's) comma form, leaf
// first: "uid=jag, ou=userProfiles, dc=research, dc=att, dc=com".
func (d DN) String() string {
	if len(d) == 0 {
		return ""
	}
	parts := make([]string, len(d))
	for i, r := range d {
		parts[i] = r.String()
	}
	return strings.Join(parts, ", ")
}

// RDN returns the entry's own relative distinguished name (the first set
// in the sequence), or nil for the root DN.
func (d DN) RDN() RDN {
	if len(d) == 0 {
		return nil
	}
	return d[0]
}

// Parent returns the DN of the parent entry (the sequence with the
// leading RDN removed). The parent of a length-1 DN is the empty DN.
func (d DN) Parent() DN {
	if len(d) == 0 {
		return nil
	}
	return d[1:]
}

// Depth returns the number of RDNs in the DN.
func (d DN) Depth() int { return len(d) }

// Child returns the DN obtained by prepending rdn to d.
func (d DN) Child(rdn RDN) DN {
	out := make(DN, 0, len(d)+1)
	out = append(out, rdn)
	out = append(out, d...)
	return out
}

// Equal reports whether two DNs name the same entry.
func (d DN) Equal(e DN) bool {
	if len(d) != len(e) {
		return false
	}
	for i := range d {
		if !d[i].Equal(e[i]) {
			return false
		}
	}
	return true
}

// IsAncestorOf reports whether d is a proper ancestor of e: there is a
// non-empty sequence s1..sm with dn(e) = s1, ..., sm, dn(d)
// (Definition 3.2). The empty DN is an ancestor of every non-empty DN.
func (d DN) IsAncestorOf(e DN) bool {
	if len(e) <= len(d) {
		return false
	}
	off := len(e) - len(d)
	for i := range d {
		if !d[i].Equal(e[off+i]) {
			return false
		}
	}
	return true
}

// IsParentOf reports whether d is the parent of e.
func (d DN) IsParentOf(e DN) bool {
	return len(e) == len(d)+1 && d.IsAncestorOf(e)
}

// Key separator bytes. keySep terminates each RDN component; it sorts
// below every byte that may appear in an escaped component, so
// lexicographic byte order on keys equals the paper's ordering by the
// reverse of the DN, and key(parent) is a strict prefix of key(child).
const (
	keySep = '\x00'
)

// Key returns the reverse-DN sort key of Section 4.2: the normalized RDN
// components emitted root-first, each terminated by a 0x00 byte. Under
// byte-wise lexicographic order this is exactly "the lexicographic
// ordering on the reverse of the string representation of the
// distinguished names", and an ancestor's key is a prefix of each
// descendant's key.
//
// The builder grows once, to the key's length without escapes, and a
// one-AVA RDN — every RDN of the paper's figures — is written as it
// stands; only a multi-AVA RDN is copied to sort its pairs.
func (d DN) Key() string {
	n := 0
	for _, r := range d {
		for _, ava := range r {
			n += len(ava.Attr) + len(ava.Value) + 2 // '=' and '+' or keySep
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i := len(d) - 1; i >= 0; i-- {
		writeRDNKey(&b, d[i])
		b.WriteByte(keySep)
	}
	return b.String()
}

func writeRDNKey(b *strings.Builder, r RDN) {
	multi := len(r) > 1
	if multi {
		r = r.normalized()
	}
	for i, ava := range r {
		if i > 0 {
			b.WriteByte('+')
		}
		switch {
		case multi:
			b.WriteString(ava.Attr) // normalized already
		case !writeLowerAttr(b, ava.Attr):
			b.WriteString(NormalizeAttr(ava.Attr))
		}
		b.WriteByte('=')
		// Escape keySep and '+' inside values so component boundaries
		// stay unambiguous in the key.
		v := ava.Value
		for j := 0; j < len(v); j++ {
			c := v[j]
			if c == keySep || c == '+' || c == '\x01' {
				b.WriteByte('\x01')
			}
			b.WriteByte(c)
		}
	}
}

// writeLowerAttr writes NormalizeAttr(a) without allocating when a is
// ASCII with no space at either end, which every attribute name is in
// practice; otherwise it writes nothing and reports false.
func writeLowerAttr(b *strings.Builder, a string) bool {
	if a != "" && (asciiSpace(a[0]) || asciiSpace(a[len(a)-1])) {
		return false
	}
	for i := 0; i < len(a); i++ {
		if a[i] >= 0x80 {
			return false
		}
	}
	for i := 0; i < len(a); i++ {
		c := a[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return true
}

func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// KeyIsAncestor reports whether the entry with reverse key a is a proper
// ancestor of the entry with reverse key b, using only the keys.
func KeyIsAncestor(a, b string) bool {
	return len(a) < len(b) && strings.HasPrefix(b, a)
}

// KeyIsParent reports whether key a identifies the parent of key b: a is
// a proper prefix of b and b has exactly one further RDN component.
func KeyIsParent(a, b string) bool {
	if !KeyIsAncestor(a, b) {
		return false
	}
	return keyDepth(b[len(a):]) == 1
}

// KeyDepth returns the number of RDN components encoded in a reverse key.
func KeyDepth(k string) int { return keyDepth(k) }

func keyDepth(k string) int {
	n := 0
	esc := false
	for i := 0; i < len(k); i++ {
		if esc {
			esc = false
			continue
		}
		switch k[i] {
		case '\x01':
			esc = true
		case keySep:
			n++
		}
	}
	return n
}

// escapeDNValue escapes characters that are structural in the DN text
// form (comma, plus, equals, backslash) plus leading/trailing spaces,
// which the parser would otherwise trim away (RFC 4514 §2.4).
func escapeDNValue(v string) string {
	if !strings.ContainsAny(v, ",+=\\") &&
		(v == "" || (v[0] != ' ' && v[len(v)-1] != ' ')) {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == ',' || c == '+' || c == '=' || c == '\\' ||
			(c == ' ' && (i == 0 || i == len(v)-1)) {
			b.WriteByte('\\')
		}
		b.WriteByte(c)
	}
	return b.String()
}

// ErrBadDN reports a malformed distinguished-name string.
var ErrBadDN = errors.New("model: malformed distinguished name")

// ParseDN parses the textual comma form of a distinguished name:
// "uid=jag, ou=userProfiles, dc=att, dc=com". Multi-valued RDNs use '+':
// "cn=a+sn=b, dc=com". Backslash escapes the structural characters.
// The empty string parses to the empty (root) DN.
func ParseDN(s string) (DN, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var dn DN
	for _, comp := range splitUnescaped(s, ',') {
		comp = trimUnescapedSpace(comp)
		if comp == "" {
			return nil, fmt.Errorf("%w: empty RDN in %q", ErrBadDN, s)
		}
		var rdn RDN
		for _, avaText := range splitUnescaped(comp, '+') {
			avaText = trimUnescapedSpace(avaText)
			eq := indexUnescaped(avaText, '=')
			if eq <= 0 {
				return nil, fmt.Errorf("%w: component %q lacks attr=value", ErrBadDN, avaText)
			}
			attr := strings.TrimSpace(avaText[:eq])
			raw := trimUnescapedSpace(avaText[eq+1:])
			if hasUnterminatedEscape(raw) {
				return nil, fmt.Errorf("%w: unterminated escape in %q", ErrBadDN, avaText)
			}
			val := unescapeDNValue(raw)
			if attr == "" {
				return nil, fmt.Errorf("%w: empty attribute in %q", ErrBadDN, avaText)
			}
			rdn = append(rdn, AVA{Attr: attr, Value: val})
		}
		dn = append(dn, rdn)
	}
	return dn, nil
}

// trimUnescapedSpace trims surrounding whitespace but keeps a trailing
// space that is backslash-escaped (the RFC 4514 way to put significant
// leading/trailing spaces in a value).
func trimUnescapedSpace(s string) string {
	s = strings.TrimLeft(s, " \t")
	for len(s) > 0 && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		if s[len(s)-1] == ' ' && hasUnterminatedEscape(s[:len(s)-1]) {
			break // escaped trailing space: significant
		}
		s = s[:len(s)-1]
	}
	return s
}

// hasUnterminatedEscape reports whether s ends in an odd run of
// backslashes, i.e. the next byte (or end of string) is escaped.
func hasUnterminatedEscape(s string) bool {
	n := 0
	for i := len(s) - 1; i >= 0 && s[i] == '\\'; i-- {
		n++
	}
	return n%2 == 1
}

// MustParseDN is ParseDN for static strings; it panics on error.
func MustParseDN(s string) DN {
	dn, err := ParseDN(s)
	if err != nil {
		panic(err)
	}
	return dn
}

func splitUnescaped(s string, sep byte) []string {
	var parts []string
	start := 0
	esc := false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case s[i] == '\\':
			esc = true
		case s[i] == sep:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	return append(parts, s[start:])
}

func indexUnescaped(s string, c byte) int {
	esc := false
	for i := 0; i < len(s); i++ {
		switch {
		case esc:
			esc = false
		case s[i] == '\\':
			esc = true
		case s[i] == c:
			return i
		}
	}
	return -1
}

func unescapeDNValue(v string) string {
	if !strings.ContainsRune(v, '\\') {
		return v
	}
	var b strings.Builder
	esc := false
	for i := 0; i < len(v); i++ {
		c := v[i]
		if esc {
			b.WriteByte(c)
			esc = false
			continue
		}
		if c == '\\' {
			esc = true
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}
