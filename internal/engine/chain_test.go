package engine

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/pager"
	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/workload"
)

// chainInstance builds a single path of depth n: the adversarial shape
// for the stack algorithms (the whole merge lives on the stack at once,
// forcing spills through the resident window).
func chainInstance(t testing.TB, n int) *model.Instance {
	t.Helper()
	in := model.NewInstance(workload.ForestSchema())
	dn := model.DN{}
	for i := 0; i < n; i++ {
		dn = dn.Child(model.RDN{{Attr: "n", Value: fmt.Sprintf("c%d", i)}})
		e, err := model.NewEntryFromDN(in.Schema(), dn)
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("node")
		e.Add("tag", model.String(string(rune('a'+i%3))))
		e.Add("val", model.Int(int64(i%5)))
		in.MustAdd(e)
	}
	return in
}

// TestDeepChainCorrectness drives every hierarchy operator over a path
// deep enough that the stack spills at the smallest window, and checks
// against the oracle.
func TestDeepChainCorrectness(t *testing.T) {
	in := chainInstance(t, 100)
	d := pager.NewDisk(4096)
	st, err := store.Build(d, in, store.Options{AttrIndex: false}) // deep keys: skip attr index
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, Config{StackWindow: 2})
	resident := New(st, Config{StackWindow: 1 << 10}) // never spills a 100-frame stack

	queries := []string{
		"(a ( ? sub ? tag=a) ( ? sub ? tag=b))",
		"(d ( ? sub ? tag=a) ( ? sub ? tag=b))",
		"(p ( ? sub ? tag=a) ( ? sub ? tag=b))",
		"(c ( ? sub ? tag=a) ( ? sub ? tag=b))",
		"(ac ( ? sub ? tag=a) ( ? sub ? tag=b) ( ? sub ? tag=c))",
		"(dc ( ? sub ? tag=a) ( ? sub ? tag=b) ( ? sub ? tag=c))",
		"(d ( ? sub ? tag=a) ( ? sub ? tag=b) count($2) = max(count($2)))",
		"(a ( ? sub ? tag=a) ( ? sub ? tag=b) sum($2.val) >= 10)",
	}
	spilled := false
	for _, qs := range queries {
		q := query.MustParse(qs)
		arena := pager.NewArena(d)
		l, err := e.Session(arena).Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		ref := pager.NewArena(d)
		rl, err := resident.Session(ref).Eval(q)
		if err != nil {
			t.Fatalf("%s, resident stack: %v", qs, err)
		}
		if arena.Stats().Writes > ref.Stats().Writes {
			spilled = true // the only difference is the stack's window
		}
		if got, want := resultKeys(t, rl), oracleEval(in, q).sortedKeys(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s, resident stack:\n got %d\nwant %d", qs, len(got), len(want))
		}
		got := resultKeys(t, l)
		want := oracleEval(in, q).sortedKeys()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s:\n got %d\nwant %d", qs, len(got), len(want))
		}
	}
	if !spilled {
		t.Error("depth-100 chain never spilled the window-2 stack; test not exercising spills")
	}
}

// TestChainAgainstWideForest cross-checks the two extreme shapes at the
// same size: a flat forest (stack depth ~1) and a chain (stack depth N)
// must both match the oracle.
func TestChainAgainstWideForest(t *testing.T) {
	flat := model.NewInstance(workload.ForestSchema())
	for i := 0; i < 100; i++ {
		e, err := model.NewEntryFromDN(flat.Schema(),
			model.DN{model.RDN{{Attr: "n", Value: fmt.Sprintf("w%d", i)}}})
		if err != nil {
			t.Fatal(err)
		}
		e.AddClass("node")
		e.Add("tag", model.String(string(rune('a'+i%2))))
		flat.MustAdd(e)
	}
	for name, in := range map[string]*model.Instance{"flat": flat, "chain": chainInstance(t, 100)} {
		d := pager.NewDisk(4096)
		// Deep-chain composite index keys exceed the 512-byte page's item
		// bound; scan-based atomics are the point here anyway.
		st, err := store.Build(d, in, store.Options{AttrIndex: name == "flat"})
		if err != nil {
			t.Fatal(err)
		}
		e := New(st, Config{StackWindow: 2})
		q := query.MustParse("(d ( ? sub ? tag=a) ( ? sub ? tag=b))")
		l, err := e.Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := resultKeys(t, l)
		want := oracleEval(in, q).sortedKeys()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s shape disagrees with oracle", name)
		}
	}
}
