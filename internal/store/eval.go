package store

import (
	"errors"
	"io"
	"slices"

	"repro/internal/btree"
	"repro/internal/extsort"
	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// Need is what the consumer of an atomic evaluation reads of each
// result record: the whole entry, or only its reverse-DN key. The
// attribute index holds (attr, value, reverse-DN key) postings, so a
// keys-only index plan answers from the index alone, with no fetch from
// the master list, and no evaluation under NeedKeys writes entry bytes
// to scratch. A full record satisfies every need.
type Need uint8

const (
	// NeedAll is a consumer that reads entries: records carry them.
	NeedAll Need = iota
	// NeedKeys is a consumer that reads keys only: records carry their
	// reverse-DN keys and nothing else.
	NeedKeys
)

// String returns "all" or "keys", the need's name in EXPLAIN and spans.
func (n Need) String() string {
	if n == NeedKeys {
		return "keys"
	}
	return "all"
}

// evalEnv binds one atomic evaluation to its arena: every page the
// evaluation writes (spools, sort runs, the result list) goes to the
// arena's scratch disk, and every read of the store's disk is charged to
// the arena's meter. The store's disk is only read, so any number of
// evaluations, on distinct arenas, run concurrently with exact
// per-query accounting.
type evalEnv struct {
	s    *Store
	out  *pager.Disk  // destination for spools, sort runs, result lists
	m    *pager.Meter // charged for reads of the store's disk
	need Need
	key  plist.Record // the key-only record NeedKeys writes, reused
}

func (s *Store) arenaEnv(a *pager.Arena) *evalEnv {
	return &evalEnv{s: s, out: a.Scratch(), m: a.Meter()}
}

// EvalArena evaluates an atomic query (Definition 4.1) on the arena,
// producing a list of the matching entries sorted by reverse-DN key:
// EvalNeed under NeedAll.
func (s *Store) EvalArena(a *pager.Arena, q *query.Atomic) (*plist.List, error) {
	l, _, err := s.EvalNeed(a, q, NeedAll)
	return l, err
}

// EvalNeed evaluates an atomic query on the arena for a consumer that
// reads need of each record, and returns the plan that ran. When the
// attribute index is available and the filter is index-supported
// (equality, presence, integer comparisons, wildcard strings) and the
// catalog does not expect a scan to be cheaper for that need
// (preferScan), evaluation uses the B+tree (and, for wildcards, the
// suffix index); otherwise it scans the scope's contiguous master range.
// That comparison, made here per atomic, is the only access-path
// decision in the system.
//
// All written pages land on the arena's private scratch disk and all
// reads of the store's disk are charged to the arena's meter. The
// store's disk is never written, so any number of evaluations (on
// distinct arenas) may run concurrently.
func (s *Store) EvalNeed(a *pager.Arena, q *query.Atomic, need Need) (*plist.List, Plan, error) {
	env := s.arenaEnv(a)
	env.need = need
	p := s.plan(q, need, env.m)
	var l *plist.List
	var err error
	switch p.Path {
	case PathBasePoint:
		// Base scope names exactly one entry: a DN-index point lookup
		// beats any attribute-index plan. For knn the single entry is the
		// whole candidate set, so candidacy (Filter.Matches) is the
		// entire test.
		l, err = env.evalBase(q)
	case PathKNNIndex:
		l, err = env.knnIndex(q, s.VectorIndex(q.Filter.Attr))
	case PathIndex:
		l, err = env.indexEval(q)
	default:
		l, err = env.evalScan(q)
	}
	return l, p, err
}

// emit appends what the evaluation's need asks of the entry an index
// hit locates: the record behind the locator, or under NeedKeys only
// its key, fetching nothing.
func (env *evalEnv) emit(w *plist.Writer, rr *plist.RandomReader, key string, off int64) error {
	if env.need == NeedKeys {
		env.key.Key = key
		return w.Append(&env.key)
	}
	rec, err := env.fetchAt(rr, key, off)
	if err != nil {
		return err
	}
	return w.Append(rec)
}

// shape is emit for a record the evaluation has read already.
func (env *evalEnv) shape(rec *plist.Record) *plist.Record {
	if env.need == NeedKeys {
		env.key.Key = rec.Key
		return &env.key
	}
	return rec
}

func (env *evalEnv) evalBase(q *query.Atomic) (*plist.List, error) {
	s := env.s
	w := plist.NewWriter(env.out)
	v, err := s.dn.GetMetered([]byte(q.Base.Key()), env.m)
	if errors.Is(err, btree.ErrNotFound) {
		return w.Close()
	}
	if err != nil {
		return nil, w.Abort(err)
	}
	rr := s.master.MeteredRandomReader(env.m)
	rec, err := env.fetchAt(rr, q.Base.Key(), decodeOffset(v))
	if err != nil {
		return nil, w.Abort(err)
	}
	if q.Filter.Matches(s.schema, rec) {
		if err := w.Append(env.shape(rec)); err != nil {
			return nil, w.Abort(err)
		}
	}
	return w.Close()
}

// EvalScanArena evaluates an atomic query on the arena (see EvalArena)
// by scanning the scope range, ignoring any indexes — the baseline for
// experiment E15 and the oracle of every access path.
func (s *Store) EvalScanArena(a *pager.Arena, q *query.Atomic) (*plist.List, error) {
	return s.arenaEnv(a).evalScan(q)
}

func (env *evalEnv) evalScan(q *query.Atomic) (*plist.List, error) {
	if q.Filter.Op == filter.OpKNN && q.Scope != query.ScopeBase {
		// A per-entry scan cannot express top-k; the forced-scan path for
		// knn is the brute-force selection — which keeps EvalScanArena
		// exact, so it stays usable as the oracle for every access path.
		return env.knnScan(q)
	}
	return env.scanEval(q.Base, q.Scope, q.Filter)
}

// EvalLDAPArena evaluates an LDAP query — one base, one scope, a
// boolean combination of atomic filters — on the arena (see EvalArena)
// by scanning the scope range. This is the paper's baseline language;
// its single-scan evaluation is exactly what deployed servers do.
func (s *Store) EvalLDAPArena(a *pager.Arena, q *query.LDAP) (*plist.List, error) {
	return s.arenaEnv(a).evalLDAP(q)
}

func (env *evalEnv) evalLDAP(q *query.LDAP) (*plist.List, error) {
	return env.scanEval(q.Base, q.Scope, q.Filter)
}

// scopeOK reports whether an entry key already known to lie in the
// subtree range of baseKey satisfies the scope.
func scopeOK(baseKey string, baseDepth int, scope query.Scope, key string) bool {
	switch scope {
	case query.ScopeBase:
		return key == baseKey
	case query.ScopeOne:
		return model.KeyDepth(key)-baseDepth <= 1
	default:
		return true
	}
}

func (env *evalEnv) scanEval(base model.DN, scope query.Scope, f filter.Filter) (*plist.List, error) {
	k := base.Key()
	hi := model.SubtreeHigh(k)
	depth := base.Depth()
	w := plist.NewWriter(env.out)

	mi, err := env.mergedScan(k, hi)
	if err != nil {
		return nil, w.Abort(err)
	}
	for {
		rec, _, err := mi.Next()
		if err != nil {
			return nil, w.Abort(err)
		}
		if rec == nil {
			break
		}
		if !scopeOK(k, depth, scope, rec.Key) {
			continue
		}
		if !f.Matches(env.s.schema, rec) {
			continue
		}
		if err := w.Append(env.shape(rec)); err != nil {
			return nil, w.Abort(err)
		}
	}
	return w.Close()
}

// indexEval evaluates an index-supported filter (see indexSupported)
// through the attribute index.
func (env *evalEnv) indexEval(q *query.Atomic) (*plist.List, error) {
	s := env.s
	attr := q.Filter.Attr
	t, ok := s.schema.AttrType(attr)
	if !ok {
		// Unknown attribute: nothing can match.
		return plist.Build(env.out, nil)
	}
	switch q.Filter.Op {
	case filter.OpPresent:
		lo := attrPrefix(attr)
		return env.collect(q, [][2][]byte{{lo, prefixEnd(lo)}}, false)

	case filter.OpEq:
		if model.TypeKind(t) == model.KindString && containsStar(q.Filter.Operand) {
			sfx := s.suffix[attr]
			if sfx == nil {
				return plist.Build(env.out, nil)
			}
			var ranges [][2][]byte
			for _, vi := range sfx.MatchWildcard(q.Filter.Operand) {
				p := valuePrefix(attr, []byte(sfx.Value(vi)))
				ranges = append(ranges, [2][]byte{p, prefixEnd(p)})
			}
			return env.collect(q, ranges, len(ranges) <= 1)
		}
		v, perr := model.ParseValue(t, q.Filter.Operand)
		if perr != nil {
			// E.g. non-numeric operand on an int attribute: no match.
			return plist.Build(env.out, nil)
		}
		p := encValue(attrPrefix(attr), v)
		return env.collect(q, [][2][]byte{{p, prefixEnd(p)}}, true)

	default: // an integer comparison
		v, perr := model.ParseValue(t, q.Filter.Operand)
		if perr != nil {
			return plist.Build(env.out, nil)
		}
		lo, hi := s.intRange(attr, q.Filter.Op, v.Int())
		return env.collect(q, [][2][]byte{{lo, hi}}, false)
	}
}

func containsStar(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '*' {
			return true
		}
	}
	return false
}

// intRange maps an integer comparison to a composite-key range.
func (s *Store) intRange(attr string, op filter.Op, v int64) (lo, hi []byte) {
	ap := attrPrefix(attr)
	switch op {
	case filter.OpLT:
		return ap, valuePrefix(attr, ordInt(v))
	case filter.OpLE:
		return ap, prefixEnd(valuePrefix(attr, ordInt(v)))
	case filter.OpGT:
		return prefixEnd(valuePrefix(attr, ordInt(v))), prefixEnd(ap)
	case filter.OpGE:
		return valuePrefix(attr, ordInt(v)), prefixEnd(ap)
	}
	// Unreachable: callers pass only range operators.
	return ap, ap
}

// prefixEnd returns the exclusive upper bound of all composite keys
// extending the given component-terminated prefix: the terminator
// 0x00 0x01 bumped to 0x00 0x02, which no escaped payload byte reaches.
func prefixEnd(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	out[len(out)-1] = 0x02
	return out
}

// hits scans the given composite-key ranges and calls fn with the
// reverse-DN key and master locator of every posting inside the query's
// scope. Within one value the postings come in reverse-DN key order.
func (env *evalEnv) hits(q *query.Atomic, ranges [][2][]byte, fn func(key string, off int64) error) error {
	baseKey := q.Base.Key()
	baseHi := model.SubtreeHigh(baseKey)
	depth := q.Base.Depth()
	for _, r := range ranges {
		var inner error
		err := env.s.attr.ScanMetered(r[0], r[1], env.m, func(k, v []byte) bool {
			rk := splitRevKey(k)
			if rk < baseKey || rk >= baseHi || !scopeOK(baseKey, depth, q.Scope, rk) {
				return true
			}
			inner = fn(rk, decodeOffset(v))
			return inner == nil
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// collect evaluates an index plan over the given composite-key ranges
// under the evaluation's need. If ordered is true the single range
// already yields unique hits in key order, and they stream straight out.
// Otherwise an entry may match several values (lists are sets of
// entries, so it must appear once) and hits arrive in key order per
// value only: under NeedKeys mergeKeys sorts them in memory, and under
// NeedAll the (key, locator) hits are spooled, externally sorted and
// de-duplicated before the fetch.
func (env *evalEnv) collect(q *query.Atomic, ranges [][2][]byte, ordered bool) (*plist.List, error) {
	s := env.s
	if ordered && len(ranges) <= 1 {
		w := plist.NewWriter(env.out)
		rr := s.master.MeteredRandomReader(env.m)
		err := env.hits(q, ranges, func(key string, off int64) error { return env.emit(w, rr, key, off) })
		if err != nil {
			return nil, w.Abort(err)
		}
		return w.Close()
	}
	if env.need == NeedKeys {
		return env.mergeKeys(q, ranges)
	}

	spool := plist.NewWriter(env.out).Unordered()
	err := env.hits(q, ranges, func(key string, off int64) error {
		return spool.Append(&plist.Record{Key: key, A: off})
	})
	if err != nil {
		return nil, spool.Abort(err)
	}
	raw, err := spool.Close()
	if err != nil {
		return nil, err
	}
	sorted, err := extsort.Sort(env.out, raw.Reader(), extsort.Config{})
	if ferr := raw.Free(); err == nil {
		err = ferr
	}
	if sorted != nil {
		defer sorted.Free() // on an error return; freed below on the way through
	}
	if err != nil {
		return nil, err
	}
	w := plist.NewWriter(env.out)
	rr := s.master.MeteredRandomReader(env.m)
	rd := sorted.Reader()
	var last []byte // the key before, copied: hit is the reader's
	first := true
	for {
		hit, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, w.Abort(err)
		}
		if !first && hit.Key == string(last) {
			continue // entry matched several values
		}
		first, last = false, append(last[:0], hit.Key...)
		if err := env.emit(w, rr, hit.Key, hit.A); err != nil {
			return nil, w.Abort(err)
		}
	}
	if err := sorted.Free(); err != nil {
		return nil, w.Abort(err)
	}
	return w.Close()
}

// keysMemBytes bounds the keys mergeKeys holds in memory before it
// writes them out as a sorted run.
var keysMemBytes = 1 << 20

// mergeKeys is the keys-only plan over several values' postings. Each
// value's postings are already in reverse-DN key order, so no spool and
// no external sort are needed: the keys are gathered in memory, sorted
// and de-duplicated. Past keysMemBytes they go to scratch as a sorted
// run, and the runs are merged, equal keys combining, into the result.
func (env *evalEnv) mergeKeys(q *query.Atomic, ranges [][2][]byte) (*plist.List, error) {
	var keys []string
	held := 0
	var runs []*plist.List
	defer func() {
		for _, r := range runs {
			if r != nil {
				_ = r.Free()
			}
		}
	}()
	write := func() (*plist.List, error) {
		slices.Sort(keys)
		w := plist.NewWriter(env.out)
		for i, k := range keys {
			if i > 0 && k == keys[i-1] {
				continue // entry matched several values
			}
			env.key.Key = k
			if err := w.Append(&env.key); err != nil {
				return nil, w.Abort(err)
			}
		}
		keys, held = keys[:0], 0
		return w.Close()
	}
	err := env.hits(q, ranges, func(key string, _ int64) error {
		keys = append(keys, key)
		if held += len(key) + 16; held < keysMemBytes {
			return nil
		}
		run, err := write()
		runs = append(runs, run)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return write()
	}
	run, err := write() // the keys past the last run
	runs = append(runs, run)
	if err != nil {
		return nil, err
	}
	rds := make([]plist.RecordReader, len(runs))
	for i, r := range runs {
		rds[i] = r.Reader()
	}
	return plist.Materialize(env.out, plist.NewMergeUntagged(rds...))
}
