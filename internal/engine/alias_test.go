package engine

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/plist"
	"repro/internal/query"
)

// TestPoisonedReadsSameAnswers holds the engine to the validity rule of
// plist.Reader.Next: a record is its reader's until the next call. With
// plist.PoisonReads on, every reader and stack scribbles 0xDD over what
// it handed out before producing the next, so an operator that kept a
// key, an Aux slice or an entry's bytes too long answers differently —
// and here every answer (keys and whole entries) must equal the
// unpoisoned one and the oracle's, for the stack and sort-merge
// operators and for their naive baselines, over the fixed query pool
// and random query trees. Small sort memory makes the sorter form
// several runs and merge them.
func TestPoisonedReadsSameAnswers(t *testing.T) {
	r := rand.New(rand.NewSource(301))
	var queries []query.Query
	for _, qs := range buildQueries(t) {
		queries = append(queries, query.MustParse(qs))
	}
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for i := 0; i < trials; i++ {
		queries = append(queries, randQuery(r, 1+r.Intn(3)))
	}
	defer plist.PoisonReads(false)
	for i, q := range queries {
		in := randForest(t, r, 20+r.Intn(80))
		if err := query.Validate(in.Schema(), q); err != nil {
			t.Fatalf("invalid query %s: %v", q, err)
		}
		oracle := oracleEval(in, q).sortedKeys()
		for _, cfg := range []Config{{StackWindow: 2, SortMemBytes: 1024}, {Naive: true, SortMemBytes: 1024}} {
			e := newEngine(t, in, cfg)
			var answers [2][]string
			for p, on := range []bool{false, true} {
				plist.PoisonReads(on)
				l, err := e.Eval(q)
				if err != nil {
					t.Fatalf("query %d %s (naive %v, poisoned %v): %v", i, q, cfg.Naive, on, err)
				}
				keys := resultKeys(t, l)
				answers[p] = resultBytes(t, l)
				plist.PoisonReads(false)
				if fmt.Sprint(keys) != fmt.Sprint(oracle) {
					t.Fatalf("query %d %s (naive %v, poisoned %v)\n got %q\nwant %q", i, q, cfg.Naive, on, keys, oracle)
				}
			}
			if fmt.Sprint(answers[0]) != fmt.Sprint(answers[1]) {
				t.Fatalf("query %d %s (naive %v): poisoned reads change the entries\n got %q\nwant %q", i, q, cfg.Naive, answers[1], answers[0])
			}
		}
	}
}

// TestDecodeFrameCorrupt: a stack frame whose key length is negative or
// runs past the frame is an error. (A negative length used to slip past
// the upper-bound check and panic in the slice expression.)
func TestDecodeFrameCorrupt(t *testing.T) {
	good := encodeFrame(nil, &hsFrame{key: []byte("dc=com\x00"), label: 3, depth: 1, slot: 7})
	f := newFrame(0)
	if err := decodeFrame(good, f); err != nil || string(f.key) != "dc=com\x00" || f.label != 3 || f.depth != 1 || f.slot != 7 {
		t.Fatalf("round trip: %+v, %v", f, err)
	}
	for name, b := range map[string][]byte{
		"negative key length": binary.AppendVarint(nil, -9),
		"key past the frame":  append(binary.AppendVarint(nil, 1<<40), "abc"...),
		"truncated":           good[:len(good)-1],
		"empty":               nil,
	} {
		if err := decodeFrame(b, newFrame(0)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
