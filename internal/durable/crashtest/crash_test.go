// Package crashtest is the end-to-end kill -9 harness for the durable
// persistence stack: a child dirserve process is fed a live write
// stream and killed at random points (some runs with storage fault
// injection underneath), then restarted. After every crash the
// recovered directory must sit at a generation no older than the last
// durably acknowledged write, and must answer L0–L3 queries
// byte-identically to a locally reconstructed directory at that
// generation. The data directory must also carry no *.tmp residue
// after boot.
//
// Iterations default to a quick smoke count; `make crash` raises them
// via DIRKIT_CRASH_ITERS for the full soak.
package crashtest

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"math/rand"

	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/durable"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/workload"
)

var binPath string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "crashtest")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binPath = filepath.Join(tmp, "dirserve")
	build := exec.Command("go", "build", "-o", binPath, "./cmd/dirserve")
	build.Dir = "../../.."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building dirserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

func iterations(t *testing.T) int {
	if s := os.Getenv("DIRKIT_CRASH_ITERS"); s != "" {
		var n int
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n < 1 {
			t.Fatalf("bad DIRKIT_CRASH_ITERS %q", s)
		}
		return n
	}
	if testing.Short() {
		return 3
	}
	return 6
}

// child is one dirserve process under test.
type child struct {
	cmd  *exec.Cmd
	addr string
	gen  int64 // generation it booted at (recovered, or 1 when seeded)
	skip int   // corrupt generations it rolled past during recovery
	out  strings.Builder
	done chan struct{}
}

// startChild boots dirserve on the shared data directory and waits for
// its listen line. faultProb > 0 wraps the child's durable store in the
// deterministic storage fault injector; delta switches the child to
// incremental page-delta checkpoints. Children restart on the same
// data directory with the flag alternating, so recovery is routinely
// asked to replay a mixed full-image/delta log history.
func startChild(dataDir string, faultProb float64, seed int64, delta bool) (*child, error) {
	args := []string{
		"-gen", "paper", "-data", dataDir, "-mutable",
		"-checkpoint-every", "0", "-addr", "127.0.0.1:0",
		"-grace", "300ms",
	}
	if delta {
		args = append(args, "-delta-checkpoints")
	}
	if faultProb > 0 {
		args = append(args, "-fault-prob", fmt.Sprint(faultProb), "-fault-seed", fmt.Sprint(seed))
	}
	c := &child{cmd: exec.Command(binPath, args...), done: make(chan struct{})}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stderr = &c.out
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	c.gen = 1
	// Buffered so the scanner goroutine never drops the startup lines
	// while this loop is between receives; the non-blocking send is only
	// an overflow guard for chatty long-lived children.
	lines := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.out.WriteString(sc.Text() + "\n")
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(c.done)
	}()
	deadline := time.After(20 * time.Second)
	for {
		select {
		case ln := <-lines:
			if strings.Contains(ln, "recovered generation") {
				fmt.Sscanf(ln, "dirserve: recovered generation %d", &c.gen)
				if i := strings.Index(ln, "(skipped "); i >= 0 {
					fmt.Sscanf(ln[i:], "(skipped %d corrupt)", &c.skip)
				}
			}
			if i := strings.Index(ln, " entries on "); i >= 0 {
				c.addr = strings.TrimSpace(ln[i+len(" entries on "):])
				return c, nil
			}
		case <-c.done:
			_ = c.cmd.Wait()
			return nil, fmt.Errorf("child exited before listening:\n%s", c.out.String())
		case <-deadline:
			c.kill()
			return nil, fmt.Errorf("child never listened:\n%s", c.out.String())
		}
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
	<-c.done
}

// sigterm asks for a graceful shutdown and waits for the process to
// finish its drain + final checkpoint.
func (c *child) sigterm() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	werr := c.cmd.Wait()
	<-c.done
	return werr
}

// entryLDIF is the deterministic write stream: the add that produces
// generation k inserts exactly this entry, so the state at generation g
// is the paper instance plus entries 2..g.
func entryLDIF(k int64) string {
	return fmt.Sprintf("dn: uid=crash-%06d, ou=userProfiles, dc=research, dc=att, dc=com\nobjectClass: inetOrgPerson\nuid: crash-%06d\n", k, k)
}

// expectedDirectory reconstructs, locally and from scratch, the exact
// directory a correct server must serve at generation gen.
func expectedDirectory(t *testing.T, gen int64) *core.Directory {
	t.Helper()
	in := workload.PaperInstance()
	for k := int64(2); k <= gen; k++ {
		e, err := ldif.UnmarshalEntry(in.Schema(), entryLDIF(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := core.Open(in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// compareQueries runs the L0–L3 probe set against the child and against
// the locally reconstructed directory, demanding byte-identical LDIF.
var probeQueries = []string{
	"(dc=com ? sub ? objectClass=*)",                                    // whole tree
	"(ou=userProfiles, dc=research, dc=att, dc=com ? sub ? uid=crash*)", // the write stream
	"(dc=com ? sub ? surName=jagadish)",                                 // point lookup
	"(dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)",               // subtree filter
	"(g (dc=com ? sub ? dc=*) count($$) > 0)",                           // grouped L3
}

func compareQueries(t *testing.T, cl *dirserver.Client, addr string, want *core.Directory, gen int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, q := range probeQueries {
		got, ggen, err := cl.CallWithGen(ctx, addr, "query", q)
		if err != nil {
			t.Fatalf("gen %d: %q: %v", gen, q, err)
		}
		if ggen != gen {
			t.Fatalf("%q answered at gen %d, recovered gen %d", q, ggen, gen)
		}
		res, err := want.Search(q)
		if err != nil {
			t.Fatalf("local %q: %v", q, err)
		}
		if g, w := marshalAll(got), marshalAll(res.Entries); g != w {
			t.Fatalf("gen %d: %q diverged after recovery:\n got: %s\nwant: %s", gen, q, g, w)
		}
	}
}

func marshalAll(entries []*model.Entry) string {
	var b strings.Builder
	for _, e := range entries {
		b.WriteString(ldif.MarshalEntry(e))
		b.WriteString("\n")
	}
	return b.String()
}

func assertNoTempFiles(t *testing.T, dataDir string) {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dataDir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) > 0 {
		t.Fatalf("orphaned temp files after boot: %v", m)
	}
}

// TestKillNineRecoversAckedState is the headline crash loop: stream
// writes, kill -9 mid-stream (alternate iterations also inject torn
// writes and fsync failures underneath, and alternate between
// full-image and incremental delta checkpoints), restart, and require
// the recovered server to be at least as new as the last acknowledged
// write and byte-identical to the reference reconstruction.
func TestKillNineRecoversAckedState(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	schema := workload.PaperInstance().Schema()
	cl := dirserver.NewClient(schema, dirserver.ClientConfig{})
	defer cl.Close()
	rng := rand.New(rand.NewSource(7))

	c, err := startChild(dataDir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.kill)

	iters := iterations(t)
	for iter := 0; iter < iters; iter++ {
		var acked atomic.Int64
		acked.Store(c.gen) // the boot generation is durable by construction
		stop := make(chan struct{})
		writerDone := make(chan struct{})
		go func() {
			defer close(writerDone)
			ctx := context.Background()
			for k := c.gen + 1; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				_, gen, err := cl.CallWithGen(ctx, c.addr, "add", entryLDIF(k))
				if err != nil {
					return // killed mid-write, or an injected fault refused the ack
				}
				if gen != k {
					t.Errorf("add %d acked at gen %d", k, gen)
					return
				}
				acked.Store(k)
			}
		}()

		time.Sleep(time.Duration(20+rng.Intn(120)) * time.Millisecond)
		c.kill()
		close(stop)
		<-writerDone
		if t.Failed() {
			t.FailNow()
		}
		lastAcked := acked.Load()

		// Cycle the restart through the four checkpointing regimes:
		// full images, page deltas, deltas over injected faults, full
		// images over injected faults.
		faultProb := 0.0
		if iter%4 >= 2 {
			faultProb = 0.03
		}
		delta := iter%4 == 1 || iter%4 == 2
		c, err = startChild(dataDir, faultProb, int64(iter), delta)
		if err != nil && faultProb > 0 {
			// An injected fault broke the boot path itself (e.g. the
			// directory fsync at open); a clean restart must always work.
			c, err = startChild(dataDir, 0, 0, delta)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.kill)

		if c.gen < lastAcked {
			t.Fatalf("iteration %d: recovered gen %d < last acked %d\n%s", iter, c.gen, lastAcked, c.out.String())
		}
		assertNoTempFiles(t, dataDir)
		want := expectedDirectory(t, c.gen)
		compareQueries(t, cl, c.addr, want, c.gen)
		t.Logf("iteration %d: acked %d, recovered gen %d (skipped %d corrupt)", iter, lastAcked, c.gen, c.skip)
	}
}

// TestGracefulShutdownCheckpointsInFlightWrites covers the SIGTERM
// path: writes racing the signal either complete (checkpointed, acked)
// or are cleanly excluded; the drain's final checkpoint persists the
// surviving generation and leaves no temp files behind.
func TestGracefulShutdownCheckpointsInFlightWrites(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	schema := workload.PaperInstance().Schema()
	cl := dirserver.NewClient(schema, dirserver.ClientConfig{})
	defer cl.Close()

	// The writer runs against a delta-checkpointing server; the final
	// drain checkpoint and the later full-image restart must agree.
	c, err := startChild(dataDir, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var acked atomic.Int64
	acked.Store(c.gen)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		ctx := context.Background()
		for k := c.gen + 1; ; k++ {
			_, gen, err := cl.CallWithGen(ctx, c.addr, "add", entryLDIF(k))
			if err != nil {
				return // the drain excluded this write
			}
			if gen == k {
				acked.Store(k)
			}
		}
	}()
	time.Sleep(80 * time.Millisecond)
	if err := c.sigterm(); err != nil {
		t.Fatalf("graceful shutdown: %v\n%s", err, c.out.String())
	}
	<-writerDone
	if !strings.Contains(c.out.String(), "checkpointed generation") {
		t.Fatalf("no final checkpoint in output:\n%s", c.out.String())
	}
	assertNoTempFiles(t, dataDir)

	back, err := startChild(dataDir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(back.kill)
	if back.gen < acked.Load() {
		t.Fatalf("recovered gen %d < acked %d after graceful shutdown", back.gen, acked.Load())
	}
	compareQueries(t, cl, back.addr, expectedDirectory(t, back.gen), back.gen)
}

// TestLegacyDataDirectoryIsRefused: dirserve -data over a directory in
// the earlier segment-and-MANIFEST layout exits with
// durable.ErrLegacyStore, neither serving it nor writing beside it.
func TestLegacyDataDirectoryIsRefused(t *testing.T) {
	dataDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dataDir, "MANIFEST"), []byte("earlier layout"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, binPath, "-gen", "paper", "-data", dataDir, "-addr", "127.0.0.1:0").CombinedOutput()
	if err == nil || ctx.Err() != nil {
		t.Fatalf("dirserve did not exit with an error over a legacy directory (%v):\n%s", err, out)
	}
	if !strings.Contains(string(out), durable.ErrLegacyStore.Error()) {
		t.Fatalf("dirserve output does not name ErrLegacyStore:\n%s", out)
	}
	if names, err := os.ReadDir(dataDir); err != nil || len(names) != 1 {
		t.Fatalf("legacy directory changed: %v, %v", names, err)
	}
}
