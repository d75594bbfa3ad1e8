package store

import (
	"errors"
	"io"

	"repro/internal/btree"
	"repro/internal/extsort"
	"repro/internal/filter"
	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
)

// evalEnv binds one atomic evaluation to its arena: every page the
// evaluation writes (spools, sort runs, the result list) goes to the
// arena's scratch disk, and every read of the store's disk is charged to
// the arena's meter. The store's disk is only read, so any number of
// evaluations, on distinct arenas, run concurrently with exact
// per-query accounting.
type evalEnv struct {
	s   *Store
	out *pager.Disk  // destination for spools, sort runs, result lists
	m   *pager.Meter // charged for reads of the store's disk
}

func (s *Store) arenaEnv(a *pager.Arena) *evalEnv {
	return &evalEnv{s: s, out: a.Scratch(), m: a.Meter()}
}

// EvalArena evaluates an atomic query (Definition 4.1) on the arena,
// producing a list of the matching entries sorted by reverse-DN key.
// When the attribute index is available and the filter is
// index-supported (equality, presence, integer comparisons, wildcard
// strings) and the catalog does not expect a scan to be cheaper
// (preferScan), evaluation uses the B+tree (and, for wildcards, the
// suffix index); otherwise it scans the scope's contiguous master range.
// That comparison, made here per atomic, is the only access-path
// decision in the system.
//
// All written pages land on the arena's private scratch disk and all
// reads of the store's disk are charged to the arena's meter. The
// store's disk is never written, so any number of EvalArena calls (on
// distinct arenas) may run concurrently.
func (s *Store) EvalArena(a *pager.Arena, q *query.Atomic) (*plist.List, error) {
	return s.arenaEnv(a).eval(q)
}

func (env *evalEnv) eval(q *query.Atomic) (*plist.List, error) {
	if q.Scope == query.ScopeBase {
		// Base scope names exactly one entry: a DN-index point lookup
		// beats any attribute-index plan. For knn the single entry is the
		// whole candidate set, so candidacy (Filter.Matches) is the
		// entire test.
		return env.evalBase(q)
	}
	if q.Filter.Op == filter.OpKNN {
		return env.evalKNN(q)
	}
	if env.s.attr != nil && !env.s.preferScanMetered(q, env.m) {
		l, handled, err := env.indexEval(q)
		if err != nil {
			return nil, err
		}
		if handled {
			return l, nil
		}
	}
	return env.evalScan(q)
}

func (env *evalEnv) evalBase(q *query.Atomic) (*plist.List, error) {
	s := env.s
	w := plist.NewWriter(env.out)
	v, err := s.dn.GetMetered([]byte(q.Base.Key()), env.m)
	if errors.Is(err, btree.ErrNotFound) {
		return w.Close()
	}
	if err != nil {
		return nil, err
	}
	rr := s.master.MeteredRandomReader(env.m)
	rec, err := env.fetchAt(rr, q.Base.Key(), decodeOffset(v))
	if err != nil {
		return nil, err
	}
	if q.Filter.Matches(s.schema, rec) {
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// EvalScanArena evaluates an atomic query on the arena (see EvalArena)
// by scanning the scope range, ignoring any indexes — the baseline for
// experiment E15.
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
		return nil, err
	}
	for {
		rec, _, err := mi.Next()
		if err != nil {
			return nil, err
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
		if err := w.Append(rec); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// indexEval attempts index-supported evaluation. handled reports whether
// the filter shape was supported; if false the caller falls back to a
// scan.
func (env *evalEnv) indexEval(q *query.Atomic) (l *plist.List, handled bool, err error) {
	s := env.s
	attr := q.Filter.Attr
	t, ok := s.schema.AttrType(attr)
	if !ok {
		// Unknown attribute: nothing can match.
		empty, err := plist.Build(env.out, nil)
		return empty, true, err
	}
	kind := model.TypeKind(t)
	if kind == model.KindVector {
		// Embeddings have no composite-key postings (the flat vector
		// index replaces them); every scalar-filter shape over a vector
		// attribute falls back to the scope scan.
		return nil, false, nil
	}

	switch q.Filter.Op {
	case filter.OpPresent:
		lo := attrPrefix(attr)
		return env.collectFetch(q, [][2][]byte{{lo, prefixEnd(lo)}}, false)

	case filter.OpEq:
		if kind == model.KindString && containsStar(q.Filter.Operand) {
			sfx := s.suffix[attr]
			if sfx == nil {
				empty, err := plist.Build(env.out, nil)
				return empty, true, err
			}
			var ranges [][2][]byte
			for _, vi := range sfx.MatchWildcard(q.Filter.Operand) {
				p := valuePrefix(attr, []byte(sfx.Value(vi)))
				ranges = append(ranges, [2][]byte{p, prefixEnd(p)})
			}
			return env.collectFetch(q, ranges, len(ranges) <= 1)
		}
		v, perr := model.ParseValue(t, q.Filter.Operand)
		if perr != nil {
			// E.g. non-numeric operand on an int attribute: no match.
			empty, err := plist.Build(env.out, nil)
			return empty, true, err
		}
		p := encValue(attrPrefix(attr), v)
		return env.collectFetch(q, [][2][]byte{{p, prefixEnd(p)}}, true)

	case filter.OpLT, filter.OpLE, filter.OpGT, filter.OpGE:
		if kind != model.KindInt {
			return nil, false, nil // string order comparisons: scan
		}
		v, perr := model.ParseValue(t, q.Filter.Operand)
		if perr != nil {
			empty, err := plist.Build(env.out, nil)
			return empty, true, err
		}
		lo, hi := s.intRange(attr, q.Filter.Op, v.Int())
		return env.collectFetch(q, [][2][]byte{{lo, hi}}, false)

	default:
		return nil, false, nil // approx etc.: scan
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

// collectFetch scans the given composite-key ranges, filters hits to the
// query's scope, and materializes the matching entries in reverse-DN key
// order. If ordered is true the single range already yields unique hits
// in key order and entries stream straight out; otherwise hits are
// spooled, externally sorted, and de-duplicated (an entry matching
// several values appears once — lists are sets of entries).
func (env *evalEnv) collectFetch(q *query.Atomic, ranges [][2][]byte, ordered bool) (*plist.List, bool, error) {
	s := env.s
	baseKey := q.Base.Key()
	baseHi := model.SubtreeHigh(baseKey)
	depth := q.Base.Depth()

	if ordered && len(ranges) <= 1 {
		w := plist.NewWriter(env.out)
		rr := s.master.MeteredRandomReader(env.m)
		if len(ranges) == 1 {
			var inner error
			err := s.attr.ScanMetered(ranges[0][0], ranges[0][1], env.m, func(k, v []byte) bool {
				rk := splitRevKey(k)
				if rk < baseKey || rk >= baseHi || !scopeOK(baseKey, depth, q.Scope, rk) {
					return true
				}
				rec, rerr := env.fetchAt(rr, rk, decodeOffset(v))
				if rerr != nil {
					inner = rerr
					return false
				}
				if aerr := w.Append(rec); aerr != nil {
					inner = aerr
					return false
				}
				return true
			})
			if err == nil {
				err = inner
			}
			if err != nil {
				return nil, false, err
			}
		}
		l, err := w.Close()
		return l, true, err
	}

	// General path: spool (key, offset) hits, sort, dedupe, fetch.
	spool := plist.NewWriter(env.out).Unordered()
	for _, r := range ranges {
		var inner error
		err := s.attr.ScanMetered(r[0], r[1], env.m, func(k, v []byte) bool {
			rk := splitRevKey(k)
			if rk < baseKey || rk >= baseHi || !scopeOK(baseKey, depth, q.Scope, rk) {
				return true
			}
			if aerr := spool.Append(&plist.Record{Key: rk, A: decodeOffset(v)}); aerr != nil {
				inner = aerr
				return false
			}
			return true
		})
		if err == nil {
			err = inner
		}
		if err != nil {
			return nil, false, err
		}
	}
	hits, err := spool.Close()
	if err != nil {
		return nil, false, err
	}
	sorted, err := extsort.Sort(env.out, hits.Reader(), extsort.Config{})
	if err != nil {
		return nil, false, err
	}
	if err := hits.Free(); err != nil {
		return nil, false, err
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
			return nil, false, err
		}
		if !first && hit.Key == string(last) {
			continue // entry matched several values
		}
		first, last = false, append(last[:0], hit.Key...)
		rec, err := env.fetchAt(rr, hit.Key, hit.A)
		if err != nil {
			return nil, false, err
		}
		if err := w.Append(rec); err != nil {
			return nil, false, err
		}
	}
	if err := sorted.Free(); err != nil {
		return nil, false, err
	}
	l, err := w.Close()
	return l, true, err
}
