package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/query"
	"repro/internal/workload"
)

const knnTestDim = 6

// knnForestDir opens a clustered-embedding forest directory.
func knnForestDir(t testing.TB, n int, seed int64, opts Options) *Directory {
	t.Helper()
	in := workload.RandomForest(workload.ForestConfig{N: n, Seed: seed, VecDim: knnTestDim})
	dir, err := Open(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

func knnZeroQuery(k int) string {
	return fmt.Sprintf("( ? sub ? knn(emb,%s,%d))", model.FormatVector(make([]float32, knnTestDim)), k)
}

// TestKNNUpdateRebuildsVectorIndex pins the copy-on-write contract: an
// Update that adds the exact query vector changes the knn answer on the
// next search, and removing it restores the original answer — the
// vector index is rebuilt with every snapshot swap, never patched.
func TestKNNUpdateRebuildsVectorIndex(t *testing.T) {
	dir := knnForestDir(t, 250, 51, Options{})
	q := knnZeroQuery(3)
	base, err := dir.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Entries) != 3 {
		t.Fatalf("baseline returned %d entries", len(base.Entries))
	}

	hit := model.MustParseDN("n=origin")
	err = dir.Update(func(in *model.Instance) error {
		e, err := model.NewEntryFromDN(in.Schema(), hit)
		if err != nil {
			return err
		}
		e.AddClass("node")
		e.Add("emb", model.VectorValue(make([]float32, knnTestDim))) // distance 0
		return in.Add(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := dir.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range res.Entries {
		if e.DN().Equal(hit) {
			found = true
		}
	}
	if !found {
		t.Fatalf("zero-distance entry absent from post-update knn: %v", res.DNs())
	}

	err = dir.Update(func(in *model.Instance) error {
		if !in.Remove(hit) {
			return fmt.Errorf("remove failed")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	after, err := dir.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after.DNs()) != fmt.Sprint(base.DNs()) {
		t.Fatalf("knn answer did not revert after removal:\n got %v\nwant %v", after.DNs(), base.DNs())
	}
}

// TestKNNSnapshotRoundTrip: knn answers and the index-backed access
// path both survive SaveSnapshot/OpenSnapshot — the vector index is
// restored from the manifest, not rebuilt or dropped.
func TestKNNSnapshotRoundTrip(t *testing.T) {
	dir := knnForestDir(t, 300, 52, Options{})

	// A selective deep base, so the plan should choose the index.
	counts := map[string]int{}
	all, err := dir.Search("( ? sub ? objectClass=*)")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all.Entries {
		dn := e.DN()
		counts[dn[len(dn)-1].String()]++
	}
	var big string
	for b, n := range counts {
		if n > counts[big] {
			big = b
		}
	}
	queries := []string{
		knnZeroQuery(5),
		fmt.Sprintf("(%s ? sub ? knn(emb,%s,4))", big, model.FormatVector(make([]float32, knnTestDim))),
	}
	want := map[string][]string{}
	for _, q := range queries {
		res, err := dir.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.DNs()
	}

	var buf bytes.Buffer
	if err := dir.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenSnapshot(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		res, err := back.Search(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if fmt.Sprint(res.DNs()) != fmt.Sprint(want[q]) {
			t.Errorf("%s: snapshot knn answers differ\n got %v\nwant %v", q, res.DNs(), want[q])
		}
	}
	ex, err := back.ExplainQuery(queries[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Atoms) != 1 || ex.Atoms[0].Path != "knn-index" {
		t.Errorf("restored directory lost the vector index: %+v", ex.Atoms)
	}
}

// TestKNNCheckpointRecover simulates the crash round: checkpoint,
// mutate, checkpoint, rot the newest frame (a torn write at power
// loss), recover — the survivor generation answers knn exactly as it
// did when it was live.
func TestKNNCheckpointRecover(t *testing.T) {
	ds, root := newDurableStore(t)
	dir := knnForestDir(t, 200, 53, Options{})
	q := knnZeroQuery(4)
	gen1Want, err := dir.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}

	err = dir.Update(func(in *model.Instance) error {
		e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN("n=crashadd"))
		if err != nil {
			return err
		}
		e.AddClass("node")
		e.Add("emb", model.VectorValue(make([]float32, knnTestDim)))
		return in.Add(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dir.Checkpoint(ds); err != nil {
		t.Fatal(err)
	}

	// Clean recovery first: newest generation, mutated answer.
	back, info, err := Recover(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 2 {
		t.Fatalf("recovered gen %d, want 2", info.Gen)
	}
	res, err := back.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	sawCrashAdd := false
	for _, e := range res.Entries {
		if e.DN().String() == "n=crashadd" {
			sawCrashAdd = true
		}
	}
	if !sawCrashAdd {
		t.Fatalf("recovered knn lost the checkpointed entry: %v", res.DNs())
	}

	// Torn newest frame: recovery rolls back one rung and the older
	// generation's knn answer is byte-for-byte what it was live.
	damageFrame(t, ds, root, 2, func(f []byte) { f[len(f)/2] ^= 0x40 })
	old, info, err := Recover(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.Skipped != 1 {
		t.Fatalf("info = %+v, want gen 1 with 1 skip", info)
	}
	res, err = old.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.DNs()) != fmt.Sprint(gen1Want.DNs()) {
		t.Fatalf("gen-1 knn answers differ after crash recovery:\n got %v\nwant %v", res.DNs(), gen1Want.DNs())
	}
}

// TestKNNConcurrentSearchAndUpdate races knn searches against COW
// swaps (run under -race in CI): every answer must come from one
// consistent snapshot, with exactly k results throughout.
func TestKNNConcurrentSearchAndUpdate(t *testing.T) {
	dir := knnForestDir(t, 200, 54, Options{})
	q := knnZeroQuery(5)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := dir.Search(q)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Entries) != 5 {
					errs <- fmt.Errorf("knn returned %d entries, want 5", len(res.Entries))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			err := dir.Update(func(in *model.Instance) error {
				e, err := model.NewEntryFromDN(in.Schema(), model.MustParseDN(fmt.Sprintf("n=conc%d", i)))
				if err != nil {
					return err
				}
				e.AddClass("node")
				vec := make([]float32, knnTestDim)
				vec[0] = float32(i)
				e.Add("emb", model.VectorValue(vec))
				return in.Add(e)
			})
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestKNNTraceIOConservation extends the obs conservation law to the
// vector read path: in a traced evaluation mixing a knn atomic with a
// regular one, per-operator self-I/O sums exactly to the arena delta,
// and the knn span is tagged with its access path.
func TestKNNTraceIOConservation(t *testing.T) {
	dir := knnForestDir(t, 800, 55, Options{})
	text := fmt.Sprintf("(& ( ? sub ? knn(emb,%s,4)) ( ? sub ? tag=a))",
		model.FormatVector(make([]float32, knnTestDim)))
	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	arena := pager.NewArena(dir.Disk())
	tr := obs.NewTracer(arena)
	ctx := obs.WithTracer(context.Background(), tr)
	before := arena.Stats()
	l, err := dir.Engine().Session(arena).EvalContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	delta := arena.Stats().Sub(before)
	if err := l.Free(); err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root == nil {
		t.Fatal("no span tree")
	}
	if delta.IO() == 0 {
		t.Fatal("query performed no I/O; the conservation check is vacuous")
	}
	if root.IO != delta {
		t.Fatalf("root span IO %v != arena delta %v", root.IO, delta)
	}
	var sum pager.Stats
	knnTagged := ""
	root.Walk(func(s *obs.Span) {
		sum = sum.Add(s.SelfIO())
		if strings.Contains(s.Detail, "knn(") {
			if v, ok := s.TagValue("knn"); ok {
				knnTagged = v
			}
		}
	})
	if sum != delta {
		t.Fatalf("summed per-operator self IO %v != arena delta %v", sum, delta)
	}
	if knnTagged != "knn-index" && knnTagged != "knn-scan" {
		t.Fatalf("knn span not tagged with its access path (got %q)", knnTagged)
	}
}
