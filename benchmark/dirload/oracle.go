package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/model"
)

// evalPool answers every query of the pool on the in-process reference
// directory: same generator, size and seed as the server, default
// options, so neither the cache nor tracing nor the wire is in its path.
func evalPool(ref *core.Directory, pool []string) ([]answer, error) {
	out := make([]answer, len(pool))
	for i, q := range pool {
		res, err := ref.Search(q)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q, err)
		}
		out[i] = hashEntries(res.Entries)
	}
	return out, nil
}

// goldenRow pins one query's answer in benchmark/golden.json, so a
// change that is wrong in the server and in the reference alike — they
// share the engine — still fails.
type goldenRow struct {
	Query string `json:"query"`
	Count int    `json:"count"`
	Hash  string `json:"hash"` // FNV-1a 64, hex
}

// goldenFile maps workload → seed → rows.
type goldenFile map[string]map[string][]goldenRow

const goldenSampleSize = 50

// goldenSeeds are the seeds benchmark/golden.json covers.
var goldenSeeds = []int64{1, 2}

// goldenRows picks the queries pinned for (spec, seed): the whole pool
// when it is small, else a seeded sample of it.
func goldenRows(seed int64, pool []string, want []answer) []goldenRow {
	idx := rand.New(rand.NewSource(seed)).Perm(len(pool))
	if len(idx) > goldenSampleSize {
		idx = idx[:goldenSampleSize]
	}
	sort.Ints(idx)
	rows := make([]goldenRow, len(idx))
	for i, q := range idx {
		rows[i] = goldenRow{Query: pool[q], Count: want[q].Count, Hash: strconv.FormatUint(want[q].Hash, 16)}
	}
	return rows
}

func readGolden(path string) (goldenFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// checkGolden compares rows with the pinned ones. It reports how many
// rows were compared (zero when the file has none for this seed) and
// how many differ.
func checkGolden(g goldenFile, workload string, seed int64, rows []goldenRow) (checked, mismatched int) {
	pinned := g[workload][strconv.FormatInt(seed, 10)]
	if len(pinned) == 0 {
		return 0, 0
	}
	if len(pinned) != len(rows) {
		return len(pinned), len(pinned)
	}
	for i := range pinned {
		if pinned[i] != rows[i] {
			mismatched++
		}
	}
	return len(pinned), mismatched
}

// applyOps returns a copy of in with the writes applied in order — the
// reference a mutated server is compared against.
func applyOps(in *model.Instance, ops []writeOp) (*model.Instance, error) {
	out := in.Clone()
	for _, op := range ops {
		if op.kind == "add" {
			if err := out.Add(op.entry.Clone()); err != nil {
				return nil, err
			}
		} else if !out.Remove(op.entry.DN()) {
			return nil, fmt.Errorf("reference: del of absent %s", op.entry.DN())
		}
	}
	return out, nil
}

// sampleQueries is the 12-query sample that compares provision's mutated
// (or recovered) directory with its reference: the written entries by
// wildcard, a hierarchical selection across the written and the
// generated part, three untouched point queries, and one-level scans
// under the parents written to most recently.
func sampleQueries(written []*model.Entry) []string {
	added := fmt.Sprintf("(%s ? sub ? CANumber=555*)", topsBase)
	qhps := fmt.Sprintf("(%s ? sub ? objectClass=QHP)", topsBase)
	out := []string{added,
		fmt.Sprintf("(c %s %s)", qhps, added),
		fmt.Sprintf("(%s ? one ? uid=sub0000)", topsBase),
		fmt.Sprintf("(uid=sub0000, %s ? one ? objectClass=QHP)", topsBase),
		fmt.Sprintf("(QHPName=qhp0, uid=sub0000, %s ? one ? objectClass=callAppearance)", topsBase)}
	seen := make(map[string]bool)
	for i := len(written) - 1; i >= 0 && len(out) < 12; i-- {
		parent := written[i].DN().Parent().String()
		if !seen[parent] {
			seen[parent] = true
			out = append(out, fmt.Sprintf("(%s ? one ? objectClass=*)", parent))
		}
	}
	return out
}
