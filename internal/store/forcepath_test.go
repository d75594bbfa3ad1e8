package store

import (
	"fmt"
	"testing"

	"repro/internal/filter"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// forcePath evaluates q by the named access path instead of the one
// eval's catalog comparison would choose — the lever of the
// per-access-path identity tests. Every path is exact: "index" on a
// shape the index cannot serve, or on an unindexed store, degrades to
// the scan, as does "knn-index" without a vector index; base scopes
// always take the point lookup.
func forcePath(env *evalEnv, q *query.Atomic, path string) (*plist.List, error) {
	knn := q.Filter.Op == filter.OpKNN
	switch {
	case q.Scope == query.ScopeBase:
		return env.evalBase(q)
	case path == PathKNNIndex && knn:
		if ix := env.s.VectorIndex(q.Filter.Attr); ix != nil {
			return env.knnIndex(q, ix)
		}
	case path == PathIndex && !knn && env.s.attr != nil:
		if l, handled, err := env.indexEval(q); err != nil || handled {
			return l, err
		}
	}
	return env.evalScan(q)
}

// forcedPaths are the access paths the identity tests iterate for
// scalar filters (the knn test forces PathKNNIndex itself; on a scalar
// filter the knn paths are the scan).
var forcedPaths = []string{PathScan, PathIndex}

// TestEvalPathByteIdentity pins the per-access-path oracle: for every
// atomic shape, every access path evaluates to the byte-identical
// result the store's own choice returns — the choice moves I/O, never
// the answer.
func TestEvalPathByteIdentity(t *testing.T) {
	in := buildTestInstance(t, 60)
	d := pager.NewDisk(1024)
	st, err := Build(d, in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range atomicCases {
		q := query.MustParse(c).(*query.Atomic)
		l, err := evalAtomic(st, q)
		if err != nil {
			t.Fatal(err)
		}
		want := keysOf(t, l)
		for _, path := range forcedPaths {
			lp, err := forcePath(testEnv(st), q, path)
			if err != nil {
				t.Fatalf("%s path %s: %v", c, path, err)
			}
			got := keysOf(t, lp)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: path %s disagrees with store choice (%d vs %d entries)",
					c, path, len(got), len(want))
			}
		}
	}
}
