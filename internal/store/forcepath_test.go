package store

import (
	"errors"
	"fmt"
	"io"
	"strings"
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
	case path == PathIndex && !knn && env.s.attr != nil && indexSupported(env.s, q):
		return env.indexEval(q)
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
// the answer. Under NeedKeys every path yields exactly the keys of that
// result, and no record carries an entry.
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
			env := testEnv(st)
			env.need = NeedKeys
			if lp, err = forcePath(env, q, path); err != nil {
				t.Fatalf("%s path %s, keys: %v", c, path, err)
			}
			if got := onlyKeys(t, lp); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: path %s under NeedKeys disagrees with store choice (%d vs %d keys)",
					c, path, len(got), len(want))
			}
		}
	}
}

// onlyKeys reads a keys-only list: its keys, in order, failing if a
// record carries an entry.
func onlyKeys(t *testing.T, l *plist.List) []string {
	t.Helper()
	var out []string
	rd := l.Reader()
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.HasEntry() {
			t.Fatalf("keys-only record %q carries an entry", rec.Key)
		}
		out = append(out, strings.Clone(rec.Key))
	}
}

// TestKeysOnlyMultiValueIndexPlan checks mergeKeys, the keys-only plan
// over several values' postings, against the scan: an entry holding
// several matching values (its object classes) appears once, and the
// answer is the same when the keys outgrow memory and are merged from
// sorted runs on scratch.
func TestKeysOnlyMultiValueIndexPlan(t *testing.T) {
	in := buildTestInstance(t, 60)
	st, err := Build(pager.NewDisk(1024), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func(n int) { keysMemBytes = n }(keysMemBytes)
	for _, mem := range []int{keysMemBytes, 256} {
		keysMemBytes = mem
		for _, c := range []string{
			"( ? sub ? objectClass=*)",
			"(dc=com ? sub ? objectClass=*o*)",
			"(dc=com ? sub ? priority>=1)",
			"(ou=userProfiles, dc=research, dc=att, dc=com ? one ? objectClass=*)",
		} {
			q := query.MustParse(c).(*query.Atomic)
			l, err := evalScan(st, q)
			if err != nil {
				t.Fatal(err)
			}
			want := keysOf(t, l)
			env := testEnv(st)
			env.need = NeedKeys
			lk, err := env.indexEval(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := onlyKeys(t, lk); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("memory %d: %s: keys-only index plan gives %d keys, the scan %d", mem, c, len(got), len(want))
			}
			if mem < 1024 && len(want) > 0 && env.out.Stats().Writes <= int64(lk.Pages()) {
				t.Errorf("memory %d: %s wrote no sorted runs", mem, c)
			}
		}
	}
}

// TestDrainRefusesKeysOnlyList: a keys-only result never becomes
// entries. Drain, where entries leave the engine, refuses its records
// with plist.ErrNoEntry instead of handing out records without one.
func TestDrainRefusesKeysOnlyList(t *testing.T) {
	in := buildTestInstance(t, 20)
	st, err := Build(pager.NewDisk(1024), in, Options{AttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse("(dc=com ? sub ? objectClass=inetOrgPerson)").(*query.Atomic)
	l, plan, err := st.EvalNeed(pager.NewArena(st.Disk()), q, NeedKeys)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Need != NeedKeys || l.Count() == 0 {
		t.Fatalf("plan %+v, %d records", plan, l.Count())
	}
	if recs, err := plist.Drain(l); !errors.Is(err, plist.ErrNoEntry) {
		t.Fatalf("Drain of a keys-only list: %d records, error %v", len(recs), err)
	}
	rec, err := l.Reader().Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Materialize(); !errors.Is(err, plist.ErrNoEntry) {
		t.Fatalf("Materialize of a keys-only record: %v", err)
	}
}
