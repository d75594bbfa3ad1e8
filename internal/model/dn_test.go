package model

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseDNRoundTrip(t *testing.T) {
	cases := []string{
		"dc=com",
		"dc=att, dc=com",
		"dc=research, dc=att, dc=com",
		"uid=jag, ou=userProfiles, dc=research, dc=att, dc=com",
		"SLAPolicyName=dso, ou=SLAPolicyRules, ou=networkPolicies, dc=research, dc=att, dc=com",
		"cn=a+sn=b, dc=com",
	}
	for _, c := range cases {
		dn, err := ParseDN(c)
		if err != nil {
			t.Fatalf("ParseDN(%q): %v", c, err)
		}
		back, err := ParseDN(dn.String())
		if err != nil {
			t.Fatalf("re-parse of %q -> %q: %v", c, dn.String(), err)
		}
		if !dn.Equal(back) {
			t.Errorf("round trip of %q changed: %q", c, back.String())
		}
	}
}

func TestParseDNEmpty(t *testing.T) {
	dn, err := ParseDN("")
	if err != nil || len(dn) != 0 {
		t.Fatalf("empty DN: got %v, %v", dn, err)
	}
	if dn.Key() != "" {
		t.Fatalf("empty DN key: %q", dn.Key())
	}
}

func TestParseDNErrors(t *testing.T) {
	for _, bad := range []string{"nodelim", "=v", "a=1,,b=2", "a=1, , b=2", ","} {
		if _, err := ParseDN(bad); err == nil {
			t.Errorf("ParseDN(%q): expected error", bad)
		}
	}
}

func TestParseDNEscapes(t *testing.T) {
	orig := DN{RDN{{Attr: "cn", Value: "smith, john+jr=x"}}, RDN{{Attr: "dc", Value: "com"}}}
	text := orig.String()
	back, err := ParseDN(text)
	if err != nil {
		t.Fatalf("ParseDN(%q): %v", text, err)
	}
	if !orig.Equal(back) {
		t.Fatalf("escape round trip: %q -> %#v", text, back)
	}
}

func TestDNHierarchy(t *testing.T) {
	com := MustParseDN("dc=com")
	att := MustParseDN("dc=att, dc=com")
	research := MustParseDN("dc=research, dc=att, dc=com")
	otherCom := MustParseDN("dc=ibm, dc=com")

	if !com.IsParentOf(att) {
		t.Error("com should be parent of att")
	}
	if !com.IsAncestorOf(research) {
		t.Error("com should be ancestor of research")
	}
	if com.IsParentOf(research) {
		t.Error("com is not parent of research")
	}
	if att.IsAncestorOf(att) {
		t.Error("ancestor is proper: att not ancestor of itself")
	}
	if att.IsAncestorOf(otherCom) {
		t.Error("att not ancestor of ibm")
	}
	if !att.Parent().Equal(com) {
		t.Error("parent of att should be com")
	}
	if got := research.Depth(); got != 3 {
		t.Errorf("depth = %d, want 3", got)
	}
	if !att.Child(RDN{{Attr: "dc", Value: "research"}}).Equal(research) {
		t.Error("Child(att, dc=research) != research")
	}
}

func TestKeyPrefixProperty(t *testing.T) {
	// key(parent) must be a strict prefix of key(child), and KeyIsParent /
	// KeyIsAncestor must agree with the DN-level predicates.
	dns := []DN{
		MustParseDN("dc=com"),
		MustParseDN("dc=att, dc=com"),
		MustParseDN("dc=research, dc=att, dc=com"),
		MustParseDN("ou=userProfiles, dc=research, dc=att, dc=com"),
		MustParseDN("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com"),
		MustParseDN("dc=ibm, dc=com"),
		MustParseDN("dc=attx, dc=com"), // sibling whose RDN extends att's text
	}
	for _, a := range dns {
		for _, b := range dns {
			ka, kb := a.Key(), b.Key()
			if got, want := KeyIsAncestor(ka, kb), a.IsAncestorOf(b); got != want {
				t.Errorf("KeyIsAncestor(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := KeyIsParent(ka, kb), a.IsParentOf(b); got != want {
				t.Errorf("KeyIsParent(%s, %s) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestKeySiblingNotPrefix(t *testing.T) {
	// "dc=att" must not be treated as an ancestor of "dc=attx".
	a := MustParseDN("dc=att, dc=com").Key()
	b := MustParseDN("dc=attx, dc=com").Key()
	if KeyIsAncestor(a, b) {
		t.Fatal("att must not be key-ancestor of attx")
	}
}

func TestKeyDepth(t *testing.T) {
	for want := 1; want <= 6; want++ {
		dn := make(DN, 0, want)
		base := DN{}
		for i := 0; i < want; i++ {
			base = base.Child(RDN{{Attr: "dc", Value: strings.Repeat("x", i+1)}})
		}
		dn = base
		if got := KeyDepth(dn.Key()); got != want {
			t.Errorf("KeyDepth(depth-%d dn) = %d", want, got)
		}
	}
}

func TestKeyEscaping(t *testing.T) {
	// Values containing the separator bytes must not break the prefix
	// property or depth counting.
	tricky := DN{
		RDN{{Attr: "cn", Value: "a\x00b\x01c+d"}},
		RDN{{Attr: "dc", Value: "com"}},
	}
	parent := DN{RDN{{Attr: "dc", Value: "com"}}}
	if !KeyIsParent(parent.Key(), tricky.Key()) {
		t.Fatal("escaped child not recognized")
	}
	if got := KeyDepth(tricky.Key()); got != 2 {
		t.Fatalf("KeyDepth = %d, want 2", got)
	}
}

// randDN builds a random DN below one of a few roots, depth <= 6.
func randDN(r *rand.Rand) DN {
	depth := 1 + r.Intn(6)
	dn := DN{}
	for i := 0; i < depth; i++ {
		val := string(rune('a' + r.Intn(4)))
		if r.Intn(8) == 0 {
			val += "\x00+" // exercise escaping
		}
		dn = dn.Child(RDN{{Attr: "dc", Value: val}})
	}
	return dn
}

func TestQuickKeyOrderMatchesReverseDN(t *testing.T) {
	// Property: for random DN pairs, key order agrees with the
	// lexicographic order of the reversed RDN-string sequences, and
	// ancestor relations agree with key prefixes.
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		a, b := randDN(r), randDN(r)
		ka, kb := a.Key(), b.Key()
		if a.IsAncestorOf(b) != KeyIsAncestor(ka, kb) {
			return false
		}
		if a.Equal(b) != (ka == kb) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSortGroupsSubtrees(t *testing.T) {
	// Property: after sorting by key, every subtree is a contiguous run —
	// i.e. all descendants of any entry immediately follow it.
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(40)
		dns := make([]DN, n)
		for i := range dns {
			dns[i] = randDN(r)
		}
		sort.Slice(dns, func(i, j int) bool { return dns[i].Key() < dns[j].Key() })
		for i := range dns {
			inRun := true
			for j := i + 1; j < len(dns); j++ {
				isDesc := dns[i].IsAncestorOf(dns[j]) || dns[i].Equal(dns[j])
				if isDesc && !inRun {
					t.Fatalf("subtree of %s not contiguous", dns[i])
				}
				if !isDesc {
					inRun = false
				}
			}
		}
	}
}

func TestSubtreeHighBoundsRange(t *testing.T) {
	root := MustParseDN("dc=att, dc=com")
	inside := MustParseDN("uid=j, ou=x, dc=att, dc=com")
	sibling := MustParseDN("dc=attx, dc=com")
	lo, hi := root.Key(), SubtreeHigh(root.Key())
	if !(inside.Key() >= lo && inside.Key() < hi) {
		t.Error("descendant outside [lo,hi)")
	}
	if sibling.Key() >= lo && sibling.Key() < hi {
		t.Error("sibling inside subtree range")
	}
}

func TestParseDNRejectsUnterminatedEscape(t *testing.T) {
	for _, s := range []string{`dc=a\`, `dc=a\\\`, `dc=a\, dc=b\`} {
		if _, err := ParseDN(s); err == nil {
			t.Errorf("ParseDN(%q) accepted a trailing lone backslash", s)
		}
	}
	// An even run of backslashes is a complete escape, not an error.
	d, err := ParseDN(`dc=a\\`)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.RDN()[0].Value; got != `a\` {
		t.Errorf("value = %q, want %q", got, `a\`)
	}
}

func TestDNSpaceEscapeRoundTrip(t *testing.T) {
	for _, val := range []string{" leading", "trailing ", " both ", "  double  "} {
		d := DN{RDN{{Attr: "dc", Value: val}}, RDN{{Attr: "dc", Value: "com"}}}
		back, err := ParseDN(d.String())
		if err != nil {
			t.Fatalf("%q: %v", d.String(), err)
		}
		if !back.Equal(d) {
			t.Errorf("round trip of value %q: rendered %q, got back value %q",
				val, d.String(), back.RDN()[0].Value)
		}
	}
}

// refKey is DN.Key as it was written before its one-AVA fast path: every
// RDN normalized (a sorted copy with NormalizeAttr'd attributes), then
// written with escapes. TestKeyMatchesNormalizedReference holds Key to it.
func refKey(d DN) string {
	var b strings.Builder
	for i := len(d) - 1; i >= 0; i-- {
		for j, ava := range d[i].normalized() {
			if j > 0 {
				b.WriteByte('+')
			}
			b.WriteString(ava.Attr)
			b.WriteByte('=')
			for _, c := range []byte(ava.Value) {
				if c == keySep || c == '+' || c == '\x01' {
					b.WriteByte('\x01')
				}
				b.WriteByte(c)
			}
		}
		b.WriteByte(keySep)
	}
	return b.String()
}

// TestKeyMatchesNormalizedReference: over random DNs with mixed-case,
// space-padded and non-ASCII attribute names, multi-AVA RDNs and values
// full of the bytes the key escapes, Key equals the reference that
// normalizes every RDN.
func TestKeyMatchesNormalizedReference(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	attrs := []string{"uid", "UID", "cn", "Cn", "objectClass", "QHPName", "dc", "OU", " ou", "sn\t", "Ärger", "straße", "Ω", ""}
	valueBytes := []byte{'a', 'Z', '0', ' ', '+', ',', '=', '\\', '\x00', '\x01', '\x02', 0xc3, 0xa4}
	for i := 0; i < 3000; i++ {
		dn := make(DN, r.Intn(8))
		for j := range dn {
			rdn := make(RDN, 1+r.Intn(3)*r.Intn(2)) // one AVA half the time
			for k := range rdn {
				v := make([]byte, r.Intn(6))
				for m := range v {
					v[m] = valueBytes[r.Intn(len(valueBytes))]
				}
				rdn[k] = AVA{Attr: attrs[r.Intn(len(attrs))], Value: string(v)}
			}
			dn[j] = rdn
		}
		if got, want := dn.Key(), refKey(dn); got != want {
			t.Fatalf("%q: Key %q, reference %q", dn, got, want)
		}
	}
}

// TestKeyAllocs: a DN of one-AVA RDNs gets its key in one allocation,
// the builder's.
func TestKeyAllocs(t *testing.T) {
	dn := MustParseDN("CANumber=9733608751, QHPName=workinghours, uid=jag, ou=userProfiles, dc=research, dc=att, dc=com")
	if n := testing.AllocsPerRun(100, func() { _ = dn.Key() }); n > 1 {
		t.Fatalf("Key allocates %.0f times, want 1", n)
	}
}
