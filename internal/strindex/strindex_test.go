package strindex

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSuffixContaining(t *testing.T) {
	vals := []string{"h jagadish", "lakshmanan", "milo", "srivastava", "vista"}
	x := BuildSuffix(vals)
	cases := []struct {
		sub  string
		want []int
	}{
		{"jag", []int{0}},
		{"a", []int{0, 1, 3, 4}},
		{"sta", []int{3, 4}},
		{"ish", []int{0}},
		{"zzz", nil},
		{"", []int{0, 1, 2, 3, 4}},
		{"milo", []int{2}},
	}
	for _, c := range cases {
		got := x.Containing(c.sub)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("Containing(%q) = %v, want %v", c.sub, got, c.want)
		}
	}
}

func TestSuffixMatchWildcard(t *testing.T) {
	vals := []string{"h jagadish", "jaguar", "dish", "jag"}
	x := BuildSuffix(vals)
	cases := []struct {
		pat  string
		want []int
	}{
		{"*jag*", []int{0, 1, 3}},
		{"jag*", []int{1, 3}},
		{"*dish", []int{0, 2}},
		{"jag", []int{3}},
		{"*", []int{0, 1, 2, 3}},
		{"h*dish", []int{0}},
		{"h*x*", nil},
	}
	for _, c := range cases {
		got := x.MatchWildcard(c.pat)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("MatchWildcard(%q) = %v, want %v", c.pat, got, c.want)
		}
	}
}

func TestQuickSuffixAgainstStringsContains(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	randWord := func(n int) string {
		b := make([]byte, 1+r.Intn(n))
		for i := range b {
			b[i] = byte('a' + r.Intn(4))
		}
		return string(b)
	}
	f := func() bool {
		nvals := 1 + r.Intn(12)
		seen := map[string]bool{}
		var vals []string
		for len(vals) < nvals {
			w := randWord(10)
			if !seen[w] {
				seen[w] = true
				vals = append(vals, w)
			}
		}
		x := BuildSuffix(vals)
		sub := randWord(4)
		got := x.Containing(sub)
		var want []int
		for i, v := range vals {
			if strings.Contains(v, sub) {
				want = append(want, i)
			}
		}
		sort.Ints(want)
		return fmt.Sprint(got) == fmt.Sprint(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// answers renders what an index answers to a probe: the matching values
// in number order. It fails the test if the numbers do not ascend
// strictly (which also rules out a value numbered twice).
func answers(t *testing.T, x *SuffixIndex, pattern string, wildcard bool) []string {
	t.Helper()
	nums := x.Containing(pattern)
	if wildcard {
		nums = x.MatchWildcard(pattern)
	}
	out := make([]string, len(nums))
	for i, n := range nums {
		if i > 0 && nums[i-1] >= n {
			t.Fatalf("probe %q: numbers %v do not ascend", pattern, nums)
		}
		out[i] = x.Value(n)
	}
	return out
}

// TestGrownIndexMatchesBuilt: an index grown by any sequence of With
// steps — tails below, at and across the re-sort threshold, values
// repeated within a step and across steps — answers Containing and
// MatchWildcard with the same set of values as BuildSuffix over all of
// them, each value once. With leaves its receiver as it was: every
// earlier generation, and a sibling grown from the same parent, keeps
// its own answers.
func TestGrownIndexMatchesBuilt(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	word := func(max int) string {
		b := make([]byte, r.Intn(max+1)) // the empty value included
		for i := range b {
			b[i] = byte('a' + r.Intn(3))
		}
		return string(b)
	}
	probes := func() (subs, pats []string) {
		for i := 0; i < 6; i++ {
			subs = append(subs, word(3))
			pats = append(pats, word(2)+"*"+word(2), "*"+word(3), word(2)+"*"+word(1)+"*")
		}
		return subs, append(pats, "*", "")
	}
	type generation struct {
		x    *SuffixIndex
		vals []string // distinct, in the order they came
	}
	same := func(g generation, label string) {
		t.Helper()
		want := BuildSuffix(g.vals)
		if g.x.count() != len(g.vals) {
			t.Fatalf("%s: %d values indexed, want %d", label, g.x.count(), len(g.vals))
		}
		subs, pats := probes()
		for _, sub := range subs {
			got, exp := answers(t, g.x, sub, false), answers(t, want, sub, false)
			sort.Strings(got)
			sort.Strings(exp)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s: Containing(%q) = %v, built index says %v", label, sub, got, exp)
			}
		}
		for _, pat := range pats {
			got, exp := answers(t, g.x, pat, true), answers(t, want, pat, true)
			sort.Strings(got)
			sort.Strings(exp)
			if fmt.Sprint(got) != fmt.Sprint(exp) {
				t.Fatalf("%s: MatchWildcard(%q) = %v, built index says %v", label, pat, got, exp)
			}
		}
	}
	resorts := 0
	for round := 0; round < 60; round++ {
		seen := map[string]bool{}
		var first []string
		for i := r.Intn(40); i >= 0; i-- {
			if w := word(8); !seen[w] {
				seen[w] = true
				first = append(first, w)
			}
		}
		chain := []generation{{BuildSuffix(first), first}}
		for step := 0; step < 12; step++ {
			parent := chain[r.Intn(len(chain))] // any generation may fork again
			vals := append([]string(nil), parent.vals...)
			have := map[string]bool{}
			for _, v := range vals {
				have[v] = true
			}
			var add []string
			for i := r.Intn(6); i >= 0; i-- {
				w := word(8)
				if r.Intn(4) == 0 && len(vals) > 0 {
					w = vals[r.Intn(len(vals))] // one the parent holds already
				}
				add = append(add, w)
				if !have[w] {
					have[w] = true
					vals = append(vals, w)
				}
			}
			child := generation{parent.x.With(add), vals}
			if len(child.x.tail) == 0 && len(vals) > len(parent.vals) {
				resorts++
			}
			for i, v := range parent.vals {
				if child.x.Value(i) != v {
					t.Fatalf("round %d step %d: value %d renumbered", round, step, i)
				}
			}
			chain = append(chain, child)
		}
		for i, g := range chain {
			same(g, fmt.Sprintf("round %d generation %d", round, i))
		}
	}
	if resorts == 0 {
		t.Fatal("no step crossed the re-sort threshold")
	}
}

// TestWithSharesUntilItResorts: growing by a value already held is the
// same index; growing within the threshold shares the suffix array;
// growing to the threshold re-sorts everything and empties the tail.
func TestWithSharesUntilItResorts(t *testing.T) {
	x := BuildSuffix([]string{"0123456789", "abcdefghij", "klmnopqrst", "uvwxyzABCD"}) // 40 bytes
	if x.With([]string{"abcdefghij"}) != x {
		t.Fatal("With(a held value) made a new index")
	}
	small := x.With([]string{"tail"}) // 4 bytes: 4*8 < 40
	if len(small.tail) != 1 || &small.sa[0] != &x.sa[0] {
		t.Fatalf("a 4-byte tail on 40 sorted bytes: tail %v, array shared %v", small.tail, &small.sa[0] == &x.sa[0])
	}
	if small.With([]string{"tail", "klmnopqrst"}) != small {
		t.Fatal("With(values held in the tail and in the array) made a new index")
	}
	full := small.With([]string{"5"}) // 5 bytes: 5*8 >= 40
	if len(full.tail) != 0 || len(full.vals) != 6 || len(full.sa) != 45 {
		t.Fatalf("a 5-byte tail on 40 sorted bytes: tail %v, %d values and %d suffixes sorted", full.tail, len(full.vals), len(full.sa))
	}
	if len(small.tail) != 1 || small.count() != 5 || x.count() != 4 {
		t.Fatal("With changed its receiver")
	}
}
