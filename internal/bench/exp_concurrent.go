package bench

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/workload"
)

// E20 measures the lock-free read path (DESIGN.md §10): the same query
// stream replayed by 1, 2, 4 and 8 reader goroutines, each batch run
// twice — against a quiescent directory and against one a background
// writer keeps rebuilding with Update. Because searches evaluate on
// per-query arenas against an immutable snapshot, reader counts must
// not change answers: every quiescent row carries the same FNV sum over
// all result entries as the serial row (the run panics otherwise).
// Rows with the updater running report the generations swapped under
// the readers' feet; their answers legitimately differ per generation,
// so the hash column records "-" and the consistency guarantee (each
// result matches the generation it reports) is asserted in the package
// tests instead.

// resultHash folds one search result into an order-insensitive sum:
// each evaluation contributes the FNV hash of its marshalled entries,
// and contributions add up, so any interleaving of the same multiset of
// (query, result) pairs produces the same total.
func resultHash(res *core.Result) uint64 {
	h := fnv.New64a()
	for _, e := range res.Entries {
		h.Write([]byte(ldif.MarshalEntry(e)))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// runConcurrentReaders replays stream across r goroutines (goroutine g
// takes indices g, g+r, g+2r, ... so the multiset of evaluated queries
// is identical for every r) and returns wall time and the summed result
// hash.
func runConcurrentReaders(d *core.Directory, stream []string, r int) (time.Duration, uint64) {
	var wg sync.WaitGroup
	var sum atomic.Uint64
	start := time.Now()
	for g := 0; g < r; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var local uint64
			for i := g; i < len(stream); i += r {
				res, err := d.Search(stream[i])
				if err != nil {
					panic(err)
				}
				local += resultHash(res)
			}
			sum.Add(local)
		}(g)
	}
	wg.Wait()
	return time.Since(start), sum.Load()
}

// wideQuery builds the i-th eight-leaf query: atomics over the random
// forest's vocabulary, paired into four independent subtrees, joined by
// a rotating mix of |, & and d so every boolean operator participates.
func wideQuery(i int) string {
	leaf := func(j int) string {
		k := i + 3*j
		if k%2 == 0 {
			return fmt.Sprintf("( ? sub ? tag=%c)", 'a'+k%3)
		}
		return fmt.Sprintf("( ? sub ? val>=%d)", k%8)
	}
	ops := []string{"|", "&", "d"}
	pair := func(n int, a, b string) string {
		return fmt.Sprintf("(%s %s %s)", ops[(i+n)%len(ops)], a, b)
	}
	p0 := pair(0, leaf(0), leaf(1))
	p1 := pair(1, leaf(2), leaf(3))
	p2 := pair(2, leaf(4), leaf(5))
	p3 := pair(3, leaf(6), leaf(7))
	// The top join is always | so no subtree can annul the others and
	// every row hashes a non-trivial result.
	return fmt.Sprintf("(| (| %s %s) (| %s %s))", p0, p1, p2, p3)
}

// E20ConcurrentSearch runs the stream of wide queries at 1/2/4/8
// reader goroutines over a forest of n entries, ops evaluations per
// row, with and without a background updater. Zero arguments select
// defaults.
func E20ConcurrentSearch(n, ops int) *Table {
	if n <= 0 {
		n = 2000
	}
	if ops <= 0 {
		ops = 200
	}
	const nQueries = 8
	stream := make([]string, ops)
	for i := range stream {
		stream[i] = wideQuery(i % nQueries)
	}

	t := &Table{
		ID:     "E20",
		Title:  "lock-free concurrent reads: QPS vs reader goroutines, ± background updates",
		Claim:  "DESIGN.md §10: snapshot reads share no mutable state, so readers scale and answers never tear",
		Header: []string{"readers", "updater", "queries", "wall ms", "QPS", "speedup", "swaps", "result hash"},
	}
	for _, withUpdates := range []bool{false, true} {
		var base time.Duration
		var baseHash uint64
		for _, r := range []int{1, 2, 4, 8} {
			in := workload.RandomForest(workload.ForestConfig{N: n, Seed: 11})
			d, err := core.Open(in, core.Options{})
			if err != nil {
				panic(err)
			}
			startGen := d.Generation()

			stopUpd := make(chan struct{})
			updDone := make(chan struct{})
			if withUpdates {
				go func() {
					defer close(updDone)
					for i := 0; ; i++ {
						select {
						case <-stopUpd:
							return
						default:
						}
						err := d.Update(func(inst *model.Instance) error {
							if i%2 == 0 {
								e, err := model.NewEntryFromDN(inst.Schema(),
									model.MustParseDN(fmt.Sprintf("n=e20x%d", i)))
								if err != nil {
									return err
								}
								e.AddClass("node")
								return inst.Add(e)
							}
							inst.Remove(model.MustParseDN(fmt.Sprintf("n=e20x%d", i-1)))
							return nil
						})
						if err != nil {
							panic(err)
						}
					}
				}()
			} else {
				close(updDone)
			}

			dur, hash := runConcurrentReaders(d, stream, r)
			close(stopUpd)
			<-updDone
			swaps := d.Generation() - startGen

			mode, hashCol := "off", fmt.Sprintf("%016x", hash)
			if withUpdates {
				// Answers vary with the generation each search caught;
				// identity is asserted on the quiescent rows only.
				mode, hashCol = "on", "-"
			} else if r == 1 {
				base, baseHash = dur, hash
			} else if hash != baseHash {
				panic(fmt.Sprintf("bench: E20 results diverge at readers=%d (hash %x != %x)", r, hash, baseHash))
			}
			speedup := "-"
			if !withUpdates {
				speedup = fmt.Sprintf("%.2fx", float64(base)/float64(max(dur, 1)))
			}
			qps := float64(len(stream)) / max(dur.Seconds(), 1e-9)
			t.AddRow(r, mode, len(stream), fmt.Sprintf("%.1f", float64(dur.Microseconds())/1e3),
				fmt.Sprintf("%.0f", qps), speedup, swaps, hashCol)
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d evaluations over %d distinct 8-leaf queries, forest n=%d seed 11; quiescent rows must hash identically", ops, nQueries, n),
		fmt.Sprintf("GOMAXPROCS=%d — QPS scaling requires hardware parallelism; swap column counts background rebuilds observed mid-run", runtime.GOMAXPROCS(0)),
	)
	return t
}
