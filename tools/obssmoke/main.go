// Command obssmoke is the end-to-end observability smoke test behind
// `make obs-smoke`. It builds the real dirserve binary, boots it with
// the flight recorder, admin listener, and a firehose slow-query log,
// drives 50 traced queries through the wire protocol, and then asserts
// that every ledger the system keeps agrees on what happened:
//
//   - every reply carries a well-formed span subtree whose I/O
//     conservation check passes,
//   - /metrics reports exactly 50 queries served,
//   - /debug/queries retains exactly 50 traces, each under the trace
//     ID the client minted, and serves the full span tree per trace,
//   - the slow-query log recorded one line per query, each with its
//     trace ID,
//   - after a few durable writes, /metrics shows the newest generation's
//     replay chain: one delta per write, lighter than the image beneath.
//
// Any disagreement exits non-zero — the point is that the tracing,
// flight-recorder, and metrics paths cannot drift apart silently.
//
// Usage: go run ./tools/obssmoke   (from the repository root)
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dirserver"
	"repro/internal/obs"
	"repro/internal/workload"
)

const (
	queries = 50
	writes  = 3
	forestN = 500 // must match the -gen forest -n flag handed to the child
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: ok")
}

func run() error {
	tmp, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "dirserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dirserve")
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("building dirserve: %v\n%s", err, out)
	}

	slowPath := filepath.Join(tmp, "slow.jsonl")
	child := exec.Command(bin,
		"-gen", "forest", "-n", strconv.Itoa(forestN), "-seed", "1",
		"-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0",
		"-flight", "256", "-grace", "300ms",
		"-slowlog", slowPath, "-slow-ms", "0", // thresholds zero: log every query
		"-data", filepath.Join(tmp, "data"), "-mutable", "-delta-checkpoints",
	)
	stdout, err := child.StdoutPipe()
	if err != nil {
		return err
	}
	child.Stderr = os.Stderr
	if err := child.Start(); err != nil {
		return err
	}
	defer func() {
		_ = child.Process.Kill()
		_, _ = child.Process.Wait()
	}()

	serveAddr, adminAddr, err := awaitBoot(stdout)
	if err != nil {
		return err
	}
	fmt.Printf("obssmoke: dirserve on %s, admin on %s\n", serveAddr, adminAddr)

	// The client needs the served schema to decode wire entries; the
	// generator parameters must match the child's flags (forestSfx).
	schema := workload.RandomForest(workload.ForestConfig{N: forestN, Seed: 1}).Schema()
	cl := dirserver.NewClient(schema, dirserver.ClientConfig{RequestTimeout: 10 * time.Second})
	defer cl.Close()

	// Drive the workload: every query minted its own 128-bit trace ID,
	// and every reply must bring back a conservation-clean span tree.
	tags := []string{"a", "b", "c"} // the forest generator's default tag alphabet
	traceIDs := make(map[string]bool, queries)
	var firstID string
	ctx := context.Background()
	for i := 0; i < queries; i++ {
		id := obs.NewTraceID()
		q := fmt.Sprintf("( ? sub ? tag=%s)", tags[i%len(tags)])
		entries, _, rt, err := cl.CallTraced(ctx, serveAddr, "query", q, id, 0)
		if err != nil {
			return fmt.Errorf("query %d (%s): %v", i, q, err)
		}
		if len(entries) == 0 {
			return fmt.Errorf("query %d (%s): empty answer", i, q)
		}
		if rt == nil || rt.Span == nil {
			return fmt.Errorf("query %d: no span subtree came back over the wire", i)
		}
		if err := rt.Span.CheckConservation(); err != nil {
			return fmt.Errorf("query %d: remote span tree: %v", i, err)
		}
		if rt.Span.Host != serveAddr {
			return fmt.Errorf("query %d: span subtree host %q, served by %q", i, rt.Span.Host, serveAddr)
		}
		traceIDs[id] = true
		if firstID == "" {
			firstID = id
		}
	}

	// Ledger 1: /metrics. The server and flight-recorder counters must
	// both equal the workload size exactly.
	metrics, err := get("http://" + adminAddr + "/metrics")
	if err != nil {
		return err
	}
	for _, m := range []string{"dirkit_server_queries_total", "dirkit_flight_recorded_total", "dirkit_flight_retained"} {
		got, err := promValue(metrics, m)
		if err != nil {
			return err
		}
		if got != queries {
			return fmt.Errorf("%s = %d, flight recorder and /metrics disagree (want %d)", m, got, queries)
		}
	}

	// Ledger 2: /debug/queries. Exactly the minted trace IDs, and the
	// full record round-trips with its span tree.
	body, err := get("http://" + adminAddr + "/debug/queries")
	if err != nil {
		return err
	}
	var list []struct {
		TraceID string `json:"trace"`
		Spans   int    `json:"spans"`
		Err     string `json:"err"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		return fmt.Errorf("decoding /debug/queries: %v", err)
	}
	if len(list) != queries {
		return fmt.Errorf("/debug/queries retained %d traces, want %d", len(list), queries)
	}
	for _, rec := range list {
		if !traceIDs[rec.TraceID] {
			return fmt.Errorf("/debug/queries holds trace %q the client never minted", rec.TraceID)
		}
		if rec.Spans == 0 {
			return fmt.Errorf("trace %s retained without its span tree", rec.TraceID)
		}
		if rec.Err != "" {
			return fmt.Errorf("trace %s recorded an error: %s", rec.TraceID, rec.Err)
		}
	}
	body, err = get("http://" + adminAddr + "/debug/queries?trace=" + firstID)
	if err != nil {
		return err
	}
	var rec struct {
		TraceID string    `json:"trace"`
		Root    *obs.Span `json:"root"`
	}
	if err := json.Unmarshal([]byte(body), &rec); err != nil {
		return fmt.Errorf("decoding per-trace record: %v", err)
	}
	if rec.TraceID != firstID || rec.Root == nil {
		return fmt.Errorf("?trace=%s returned trace %q, root present: %v", firstID, rec.TraceID, rec.Root != nil)
	}

	// Ledger 3: the slow-query log (thresholds zero = firehose) has one
	// line per query, each carrying its trace ID.
	slow, err := os.ReadFile(slowPath)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(slow)), "\n")
	if len(lines) != queries {
		return fmt.Errorf("slow log has %d lines, want %d", len(lines), queries)
	}
	for i, ln := range lines {
		var sl struct {
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal([]byte(ln), &sl); err != nil {
			return fmt.Errorf("slow log line %d: %v", i, err)
		}
		if !traceIDs[sl.Trace] {
			return fmt.Errorf("slow log line %d carries unknown trace %q", i, sl.Trace)
		}
	}

	// Ledger 4: the durable store's replay chain. Each write is
	// acknowledged after its checkpoint, a page delta on the boot image.
	for i := 0; i < writes; i++ {
		entry := fmt.Sprintf("dn: n=w%d\nobjectClass: node\nn: w%d\ntag: a\n", i, i)
		if _, err := cl.Call(ctx, serveAddr, "add", entry); err != nil {
			return fmt.Errorf("write %d: %v", i, err)
		}
	}
	if metrics, err = get("http://" + adminAddr + "/metrics"); err != nil {
		return err
	}
	chain := make(map[string]int64)
	for _, m := range []string{"dirkit_durable_chain_deltas", "dirkit_durable_chain_bytes", "dirkit_durable_chain_base_bytes"} {
		if chain[m], err = promValue(metrics, m); err != nil {
			return err
		}
	}
	if chain["dirkit_durable_chain_deltas"] != writes ||
		chain["dirkit_durable_chain_bytes"] <= 0 || chain["dirkit_durable_chain_bytes"] >= chain["dirkit_durable_chain_base_bytes"] {
		return fmt.Errorf("after %d writes the replay chain reads %v; want one delta each, lighter than their image", writes, chain)
	}

	// Clean shutdown so the child's drain path runs too.
	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- child.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		return fmt.Errorf("child did not exit within 10s of SIGTERM")
	}
}

// awaitBoot scans the child's stdout for the serve and admin addresses.
func awaitBoot(stdout io.Reader) (serveAddr, adminAddr string, err error) {
	deadline := time.After(30 * time.Second)
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
		close(lines)
	}()
	for {
		select {
		case ln, ok := <-lines:
			if !ok {
				return "", "", fmt.Errorf("dirserve exited before announcing its listeners")
			}
			if i := strings.Index(ln, " entries on "); i >= 0 {
				serveAddr = strings.TrimSpace(ln[i+len(" entries on "):])
			}
			if i := strings.Index(ln, "admin on http://"); i >= 0 {
				rest := ln[i+len("admin on http://"):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				adminAddr = rest
			}
			if serveAddr != "" && adminAddr != "" {
				return serveAddr, adminAddr, nil
			}
		case <-deadline:
			return "", "", fmt.Errorf("dirserve did not finish booting within 30s")
		}
	}
}

// get fetches a URL and returns its body, insisting on HTTP 200.
func get(url string) (string, error) {
	res, err := http.Get(url)
	if err != nil {
		return "", err
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		return "", err
	}
	if res.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s: HTTP %d: %s", url, res.StatusCode, body)
	}
	return string(body), nil
}

// promValue extracts a bare (unlabeled) sample from a Prometheus text
// exposition.
func promValue(body, name string) (int64, error) {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %q: %v", line, err)
		}
		return int64(f), nil
	}
	return 0, fmt.Errorf("metric %s not found in exposition", name)
}
