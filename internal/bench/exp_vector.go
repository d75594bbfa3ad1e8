package bench

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// E22 measures vector search under namespace scoping (DESIGN.md §12):
// because the flat vector index stores postings in reverse-DN key
// order, a subtree-scoped knn reads only the posting pages overlapping
// the scope's contiguous key range. The strawman it beats is the way a
// directory would bolt on a scope-oblivious vector store: search a
// global index for an oversampled top-k', then post-filter to the
// scope. The strawman reads the whole posting list regardless of scope
// and still misses scoped neighbors whenever the oversample is too
// small for an off-cluster query; the scoped search is exact by
// construction (recall@k = 1.0, enforced against the brute-force
// oracle).

const (
	e22Dim        = 8
	e22K          = 10
	e22Oversample = 4 // post-filter fetches oversample*k global winners
)

// e22Base is one scoped-search shape: a base DN and its entry count.
type e22Base struct {
	dn    model.DN
	count int
}

// e22Bases picks the most populous top-level subtree and the most
// populous depth-2 subtree inside it — a moderately and a highly
// selective scope.
func e22Bases(in *model.Instance) []e22Base {
	top := map[string]int{}
	second := map[string]int{}
	for _, e := range in.Entries() {
		dn := e.DN()
		top[dn[len(dn)-1].String()]++
		if len(dn) >= 2 {
			second[dn[len(dn)-2].String()+", "+dn[len(dn)-1].String()]++
		}
	}
	pick := func(m map[string]int) e22Base {
		var bestK string
		for k, n := range m {
			if n > m[bestK] {
				bestK = k
			}
		}
		return e22Base{dn: model.MustParseDN(bestK), count: m[bestK]}
	}
	t := pick(top)
	// Restrict the depth-2 pick to the chosen top-level subtree, so the
	// two rows nest.
	nested := map[string]int{}
	for k, n := range second {
		dn := model.MustParseDN(k)
		if t.dn.IsAncestorOf(dn) {
			nested[k] = n
		}
	}
	if len(nested) == 0 {
		return []e22Base{t}
	}
	return []e22Base{t, pick(nested)}
}

// e22Recall computes recall@k: the fraction of the exact scoped top-k
// present in got.
func e22Recall(exact []string, got map[string]bool) float64 {
	if len(exact) == 0 {
		return 1
	}
	hit := 0
	for _, k := range exact {
		if got[k] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// E22VectorScope runs the scoped-vs-postfiltered comparison over
// clustered-embedding forests of the given sizes.
func E22VectorScope(sizes []int) *Table {
	t := &Table{
		ID:     "E22",
		Title:  "scoped knn: subtree-filtered vector search vs post-filtering a global index",
		Claim:  "DESIGN.md §12: key-ordered postings make scoped knn read only the scope's pages, with exact answers",
		Header: []string{"n", "scope", "scope n", "query", "path", "scoped pages", "global pages", "ratio", "recall scoped", "recall postfilter"},
	}
	for _, n := range sizes {
		in := workload.RandomForest(workload.ForestConfig{N: n, Seed: 11, VecDim: e22Dim})
		env := openEnv(in, 2048)
		st := env.Eng.Store()
		ix := st.VectorIndex("emb")
		if ix == nil {
			panic("bench: E22 store has no vector index")
		}
		for _, b := range e22Bases(in) {
			baseKey := b.dn.Key()
			hi := model.SubtreeHigh(baseKey)
			// In-scope query: an embedding drawn from inside the scope,
			// the realistic "find similar entries near here" workload.
			// Off-cluster query: the origin, far from the scope's
			// centroid — the case where the post-filter strawman's global
			// winners all come from other subtrees.
			var inScope []float32
			in.Range(baseKey, hi, func(e *model.Entry) bool {
				if v, ok := e.First("emb"); ok {
					inScope = v.Vec()
					return false
				}
				return true
			})
			if inScope == nil {
				continue
			}
			for _, qc := range []struct {
				label string
				vec   []float32
			}{{"in-scope", inScope}, {"off-cluster", make([]float32, e22Dim)}} {
				qvec := qc.vec

				// Exact scoped answer (brute-force oracle) for recall.
				qtext := fmt.Sprintf("(%s ? sub ? knn(emb,%s,%d))", b.dn, model.FormatVector(qvec), e22K)
				q := query.MustParse(qtext).(*query.Atomic)
				oracleList, err := st.EvalScanArena(env.Arena, q)
				if err != nil {
					panic(err)
				}
				oracleRecs, err := plist.Drain(oracleList)
				if err != nil {
					panic(err)
				}
				exact := make([]string, len(oracleRecs))
				for i, r := range oracleRecs {
					exact[i] = r.Key
				}

				// Scoped search: fence-guided posting scan of [base, hi).
				var scopedMeter pager.Meter
				scoped, err := ix.Search(baseKey, hi, nil, qvec, e22K, &scopedMeter)
				if err != nil {
					panic(err)
				}
				scopedGot := map[string]bool{}
				for _, nb := range scoped {
					scopedGot[nb.Key] = true
				}
				scopedRecall := e22Recall(exact, scopedGot)
				if scopedRecall != 1 {
					panic(fmt.Sprintf("bench: E22 scoped knn recall %.2f != 1.0 at n=%d scope=%s", scopedRecall, n, b.dn))
				}

				// Post-filter strawman: global top-(oversample*k), filtered
				// to the scope afterwards.
				var globalMeter pager.Meter
				global, err := ix.Search("", "", nil, qvec, e22Oversample*e22K, &globalMeter)
				if err != nil {
					panic(err)
				}
				postGot := map[string]bool{}
				kept := 0
				for _, nb := range global {
					if nb.Key >= baseKey && (hi == "" || nb.Key < hi) && kept < e22K {
						postGot[nb.Key] = true
						kept++
					}
				}

				sp := scopedMeter.Stats().Reads
				gp := globalMeter.Stats().Reads
				ratio := "-"
				if sp > 0 {
					ratio = fmt.Sprintf("%.1fx", float64(gp)/float64(sp))
				}
				t.AddRow(n, fmt.Sprintf("depth %d", b.dn.Depth()), b.count, qc.label,
					st.ExplainAtomic(q, store.NeedAll).Path, sp, gp, ratio,
					fmt.Sprintf("%.2f", scopedRecall),
					fmt.Sprintf("%.2f", e22Recall(exact, postGot)))
			}
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("k=%d, dim=%d, clustered per-subtree embeddings (seed 11); in-scope = query sampled inside the scope, off-cluster = origin query far from the scope's centroid", e22K, e22Dim),
		fmt.Sprintf("postfilter = global top-%d then scope filter: reads every posting page and still drops scoped neighbors when the cluster is off-query", e22Oversample*e22K),
		"scoped recall is asserted equal to 1.0 against the brute-force oracle (the run panics otherwise)",
	)
	return t
}
