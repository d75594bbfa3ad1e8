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
