// Package strindex provides the string-value index Section 4.1 of
// "Querying Network Directories" assumes for wildcard filters: "trie and
// suffix tree indices [23] for string filters". A SuffixIndex — a suffix
// array, the compact modern stand-in for McCreight's suffix trees —
// answers substring queries (patterns like *jag*), and every other
// wildcard shape, prefix patterns like jag* included, by filtering the
// values that contain the pattern's longest literal run. It indexes the
// distinct values of one attribute; the directory store maps the
// surviving values back to entries through its B+tree attribute index.
package strindex

import (
	"sort"
	"strings"
)

// SuffixIndex is a suffix array over a set of distinct strings. It
// answers "which values contain this substring" in O(|sub| log S + hits)
// where S is the total number of indexed suffixes — the role the paper
// assigns to suffix-tree indexes for wildcard string filters.
type SuffixIndex struct {
	vals []string
	sa   []suffixRef // sorted by suffix text
}

type suffixRef struct {
	val int32 // index into vals
	off int32 // suffix start offset
}

// BuildSuffix indexes the given values (which should be distinct; the
// index stores them as supplied).
func BuildSuffix(vals []string) *SuffixIndex {
	x := &SuffixIndex{vals: vals}
	total := 0
	for _, v := range vals {
		total += len(v)
	}
	x.sa = make([]suffixRef, 0, total)
	for vi, v := range vals {
		for off := 0; off < len(v); off++ {
			x.sa = append(x.sa, suffixRef{val: int32(vi), off: int32(off)})
		}
	}
	sort.Slice(x.sa, func(i, j int) bool {
		a, b := x.suffix(x.sa[i]), x.suffix(x.sa[j])
		return a < b
	})
	return x
}

func (x *SuffixIndex) suffix(r suffixRef) string { return x.vals[r.val][r.off:] }

// Values returns the indexed values (shared slice; do not mutate).
func (x *SuffixIndex) Values() []string { return x.vals }

// Containing returns the indices (into Values) of the distinct values
// containing sub, in ascending index order. An empty substring matches
// every value.
func (x *SuffixIndex) Containing(sub string) []int {
	if sub == "" {
		out := make([]int, len(x.vals))
		for i := range out {
			out[i] = i
		}
		return out
	}
	lo := sort.Search(len(x.sa), func(i int) bool { return x.suffix(x.sa[i]) >= sub })
	seen := make(map[int32]bool)
	var out []int
	for i := lo; i < len(x.sa); i++ {
		if !strings.HasPrefix(x.suffix(x.sa[i]), sub) {
			break
		}
		if !seen[x.sa[i].val] {
			seen[x.sa[i].val] = true
			out = append(out, int(x.sa[i].val))
		}
	}
	sort.Ints(out)
	return out
}

// MatchWildcard returns the indices of values matching the '*' wildcard
// pattern, using the pattern's longest literal segment to prune via the
// suffix array and verifying the full pattern on each candidate.
func (x *SuffixIndex) MatchWildcard(pattern string) []int {
	segs := strings.Split(pattern, "*")
	longest := ""
	for _, s := range segs {
		if len(s) > len(longest) {
			longest = s
		}
	}
	candidates := x.Containing(longest)
	out := candidates[:0]
	for _, ci := range candidates {
		if wildcardMatch(segs, x.vals[ci]) {
			out = append(out, ci)
		}
	}
	return out
}

// wildcardMatch mirrors filter.WildcardMatch; duplicated here to keep
// strindex free of higher-layer imports.
func wildcardMatch(segments []string, s string) bool {
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
