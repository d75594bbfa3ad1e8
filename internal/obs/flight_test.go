package obs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/pager"
)

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3)
	if f.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", f.Cap())
	}
	for i := 1; i <= 5; i++ {
		f.Record(&FlightRecord{TraceID: fmt.Sprintf("t%d", i), Dur: time.Duration(i) * time.Millisecond})
	}
	if f.Total() != 5 {
		t.Fatalf("Total = %d, want 5", f.Total())
	}
	snap := f.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("retained %d records, want 3", len(snap))
	}
	// Newest first; the two oldest were evicted.
	for i, want := range []string{"t5", "t4", "t3"} {
		if snap[i].TraceID != want {
			t.Fatalf("snap[%d] = %s, want %s", i, snap[i].TraceID, want)
		}
	}
	if snap[0].Seq != 5 || snap[2].Seq != 3 {
		t.Fatalf("sequence numbers wrong: %d..%d", snap[0].Seq, snap[2].Seq)
	}
	if rec := f.Get("t4"); rec == nil || rec.TraceID != "t4" {
		t.Fatalf("Get(t4) = %+v", rec)
	}
	if rec := f.Get("t1"); rec != nil {
		t.Fatal("Get(t1) found an evicted record")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(&FlightRecord{TraceID: "x"}) // must not panic
	if f.Cap() != 0 || f.Total() != 0 || f.Snapshot() != nil || f.Get("x") != nil {
		t.Fatal("nil recorder is not a no-op")
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(&FlightRecord{TraceID: "a"})
	f.Record(&FlightRecord{TraceID: "b"})
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].TraceID != "b" || snap[1].TraceID != "a" {
		t.Fatalf("partial ring snapshot wrong: %+v", snap)
	}
}

func TestTracerSpanIDsAndAttach(t *testing.T) {
	d := pager.NewDisk(512)
	tr := NewTracer(d)
	tr.SetTraceID("abc123")
	if tr.TraceID() != "abc123" {
		t.Fatalf("TraceID = %q", tr.TraceID())
	}

	root := tr.Start("&", "")
	if root.ID == 0 {
		t.Fatal("root span got no ID")
	}
	child := tr.Start("atomic", "(a)")
	if child.ParentID != root.ID {
		t.Fatalf("child.ParentID = %d, want %d", child.ParentID, root.ID)
	}
	if got := tr.CurrentID(); got != child.ID {
		t.Fatalf("CurrentID = %d, want %d", got, child.ID)
	}

	// Graft a remote subtree under the open atomic span, the way the
	// coordinator attaches a replica's reply.
	remote := &Span{Op: "atomic", Detail: "(a)", Host: "10.0.0.2:7777",
		IO: pager.Stats{Reads: 4}, Out: 3}
	tr.Attach(remote)
	if remote.ParentID != child.ID {
		t.Fatalf("attached remote ParentID = %d, want %d", remote.ParentID, child.ID)
	}
	if len(child.Children) != 1 || child.Children[0] != remote {
		t.Fatal("remote subtree not grafted under the open span")
	}
	tr.End(child, 3)
	tr.End(root, 3)

	// The remote subtree's I/O happened on another disk: it must not
	// perturb the local conservation law.
	if err := root.CheckConservation(); err != nil {
		t.Fatalf("conservation: %v", err)
	}
	if got := root.TreeIO().Reads; got != root.IO.Reads+4 {
		t.Fatalf("TreeIO.Reads = %d, want local %d + remote 4", got, root.IO.Reads)
	}
	roots := root.RemoteRoots()
	if len(roots) != 1 || roots[0] != remote {
		t.Fatalf("RemoteRoots = %+v", roots)
	}
}

// mergedTree hand-builds a two-hop distributed trace with exact
// per-span I/O, the shape the coordinator produces.
func mergedTree() *Span {
	remote := &Span{Op: "atomic", Detail: "(b)", Host: "replica:1", ID: 1,
		IO: pager.Stats{Reads: 10, Writes: 2}, Out: 5}
	local := &Span{Op: "atomic", Detail: "(b)", ID: 3, ParentID: 2,
		IO: pager.Stats{Reads: 1}, Out: 5}
	remote.ParentID = local.ID
	local.Children = []*Span{remote}
	root := &Span{Op: "&", ID: 2,
		IO: pager.Stats{Reads: 3}, Out: 2, Children: []*Span{local}}
	return root
}

func TestCheckConservationMergedTree(t *testing.T) {
	root := mergedTree()
	if err := root.CheckConservation(); err != nil {
		t.Fatalf("well-formed merged tree rejected: %v", err)
	}
	if got := root.TreeIO().IO(); got != 3+12 {
		t.Fatalf("TreeIO = %d, want 15 (local 3 + remote 12)", got)
	}

	// Corrupt the local accounting: a same-process child claims more
	// I/O than its parent observed, so some pages would be attributed
	// to two operators.
	bad := mergedTree()
	bad.Children[0].IO = pager.Stats{Reads: 5}
	if err := bad.CheckConservation(); err == nil {
		t.Fatal("corrupted local accounting passed conservation")
	}

	// Corrupt the remote subtree's internal accounting.
	bad2 := mergedTree()
	rr := bad2.RemoteRoots()[0]
	rr.Children = []*Span{{Op: "atomic", IO: pager.Stats{Reads: 99}}}
	if err := bad2.CheckConservation(); err == nil {
		t.Fatal("corrupted remote accounting passed conservation")
	}

	// Mis-linked remote root: ParentID names a span it does not hang
	// under.
	bad3 := mergedTree()
	bad3.RemoteRoots()[0].ParentID = 42
	if err := bad3.CheckConservation(); err == nil {
		t.Fatal("mis-linked remote subtree passed conservation")
	}
}

func TestNewTraceID(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || len(b) != 32 {
		t.Fatalf("trace IDs %q, %q: want 32 hex chars", a, b)
	}
	if a == b {
		t.Fatal("two trace IDs collided")
	}
}
