// Package strindex provides the string-value index Section 4.1 of
// "Querying Network Directories" assumes for wildcard filters: "trie and
// suffix tree indices [23] for string filters". A SuffixIndex — a suffix
// array, the compact modern stand-in for McCreight's suffix trees —
// answers substring queries (patterns like *jag*), and every other
// wildcard shape, prefix patterns like jag* included, by filtering the
// values that contain the pattern's longest literal run. It indexes the
// distinct values of one attribute; the directory store maps the
// surviving values back to entries through its B+tree attribute index.
//
// An index is immutable. BuildSuffix sorts every suffix; With, the step
// a write takes, returns a second index that shares the sorted array and
// holds the values the write introduced in an unsorted tail, which
// queries scan after the array. The array is re-sorted only once the
// tail has grown to tailFraction of the sorted bytes, so a write costs
// the values it adds and a query at most that fraction more than the
// array alone.
package strindex

import (
	"slices"
	"sort"
	"strings"
)

// tailFraction bounds the unsorted tail: With re-sorts once the tail
// holds 1/tailFraction as many bytes as the suffix array covers.
const tailFraction = 8

// SuffixIndex is a suffix array over a set of distinct strings, plus an
// unsorted tail of values added since the array was sorted. It answers
// "which values contain this substring" in O(|sub| log S + hits + tail)
// where S is the total number of indexed suffixes — the role the paper
// assigns to suffix-tree indexes for wildcard string filters.
type SuffixIndex struct {
	vals      []string    // the values the array covers; value i is vals[i]
	sa        []suffixRef // their suffixes, by suffix text
	tail      []string    // value len(vals)+j is tail[j]
	saBytes   int         // total length of vals
	tailBytes int         // total length of tail
}

type suffixRef struct {
	val int32 // index into vals
	off int32 // suffix start offset
}

// BuildSuffix indexes the given values (which should be distinct; the
// index stores them as supplied), all of them in the sorted array.
func BuildSuffix(vals []string) *SuffixIndex {
	x := &SuffixIndex{vals: vals}
	for _, v := range vals {
		x.saBytes += len(v)
	}
	x.sa = make([]suffixRef, 0, x.saBytes)
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

// With returns an index over x's values and those of add that x does not
// hold yet; a value keeps the number it has in x, and new ones follow in
// the order given. x itself is unchanged and stays usable: the result
// shares its suffix array unless the tail has outgrown it.
func (x *SuffixIndex) With(add []string) *SuffixIndex {
	// The capped slice makes append copy: a sibling grown from x must not
	// write into spare capacity this result would share with it.
	tail := x.tail[:len(x.tail):len(x.tail)]
	tailBytes := x.tailBytes
	for _, v := range add {
		if x.has(v) || slices.Contains(tail[len(x.tail):], v) {
			continue
		}
		tail = append(tail, v)
		tailBytes += len(v)
	}
	if len(tail) == len(x.tail) {
		return x
	}
	if tailBytes*tailFraction >= x.saBytes {
		return BuildSuffix(append(x.vals[:len(x.vals):len(x.vals)], tail...))
	}
	return &SuffixIndex{vals: x.vals, sa: x.sa, tail: tail, saBytes: x.saBytes, tailBytes: tailBytes}
}

// has reports whether v is an indexed value: in the array, a suffix that
// equals v and starts its value; in the tail, by comparison.
func (x *SuffixIndex) has(v string) bool {
	if v == "" && slices.Contains(x.vals, v) { // the empty value has no suffix to find
		return true
	}
	for i := x.lowerBound(v); i < len(x.sa) && x.suffix(x.sa[i]) == v; i++ {
		if x.sa[i].off == 0 {
			return true
		}
	}
	return slices.Contains(x.tail, v)
}

func (x *SuffixIndex) suffix(r suffixRef) string { return x.vals[r.val][r.off:] }

// lowerBound returns the position of the first suffix >= s in the array.
func (x *SuffixIndex) lowerBound(s string) int {
	return sort.Search(len(x.sa), func(i int) bool { return x.suffix(x.sa[i]) >= s })
}

// count returns the number of indexed values.
func (x *SuffixIndex) count() int { return len(x.vals) + len(x.tail) }

// Value returns value i, a number Containing or MatchWildcard gave.
func (x *SuffixIndex) Value(i int) string {
	if i < len(x.vals) {
		return x.vals[i]
	}
	return x.tail[i-len(x.vals)]
}

// Containing returns the numbers of the distinct values containing sub,
// ascending. An empty substring matches every value.
func (x *SuffixIndex) Containing(sub string) []int {
	if sub == "" {
		out := make([]int, x.count())
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make(map[int32]bool)
	var out []int
	for i := x.lowerBound(sub); i < len(x.sa); i++ {
		if !strings.HasPrefix(x.suffix(x.sa[i]), sub) {
			break
		}
		if !seen[x.sa[i].val] {
			seen[x.sa[i].val] = true
			out = append(out, int(x.sa[i].val))
		}
	}
	sort.Ints(out)
	for j, v := range x.tail { // the tail's numbers follow the array's
		if strings.Contains(v, sub) {
			out = append(out, len(x.vals)+j)
		}
	}
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
		if wildcardMatch(segs, x.Value(ci)) {
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
