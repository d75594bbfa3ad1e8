package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// child is one dirserve process under test. Everything dirload learns
// about it comes from outside: its stdout, its /metrics endpoint and
// /proc/<pid>.
type child struct {
	cmd    *exec.Cmd
	addr   string // wire protocol listener
	admin  string // HTTP admin listener (/metrics)
	gen    int64  // generation recovered on boot (0 on a fresh start)
	setup  time.Duration
	stderr bytes.Buffer
	done   chan struct{} // closed when stdout hits EOF
}

// children tracks live processes so every exit path can reap them.
var children struct {
	sync.Mutex
	live map[*child]bool
}

func killAllChildren() {
	children.Lock()
	live := make([]*child, 0, len(children.live))
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// startChild launches dirserve with args plus ephemeral -addr/-admin
// listeners and waits for both "entries on" and "admin on". setup is
// the time from exec to the "entries on" line: generate (or recover),
// build the store, first checkpoint when durable, listen.
func startChild(bin string, args []string) (*child, error) {
	args = append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0", "-grace", "300ms")
	c := &child{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stderr = &c.stderr
	start := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]bool)
	}
	children.live[c] = true
	children.Unlock()

	// Sized to the handful of startup lines; later output is drained and
	// dropped so the child never blocks on a full pipe.
	lines := make(chan string, 16)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default:
			}
		}
	}()
	deadline := time.After(60 * time.Second)
	for {
		select {
		case ln := <-lines:
			if strings.Contains(ln, "recovered generation") {
				fmt.Sscanf(ln, "dirserve: recovered generation %d", &c.gen)
			}
			if i := strings.Index(ln, " entries on "); i >= 0 {
				c.setup = time.Since(start)
				c.addr = strings.TrimSpace(ln[i+len(" entries on "):])
			}
			if i := strings.Index(ln, "admin on http://"); i >= 0 {
				rest := ln[i+len("admin on http://"):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				c.admin = rest
				return c, nil
			}
		case <-c.done:
			c.kill()
			return nil, fmt.Errorf("dirserve %v exited before listening: %s", args, c.stderr.String())
		case <-deadline:
			c.kill()
			return nil, fmt.Errorf("dirserve %v never listened: %s", args, c.stderr.String())
		}
	}
}

// kill sends SIGKILL and waits until the process and its stdout reader
// have ended. Safe to call twice.
func (c *child) kill() {
	children.Lock()
	wasLive := children.live[c]
	delete(children.live, c)
	children.Unlock()
	if !wasLive {
		return
	}
	_ = c.cmd.Process.Kill()
	<-c.done
	_ = c.cmd.Wait()
}

// cpu returns the child's cumulative user+system CPU time from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks).
func (c *child) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

func parseProcStatCPU(stat string) (time.Duration, error) {
	// The command name (field 2) is parenthesized and may contain
	// spaces; fields are counted from after its closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat %q", stat)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat times %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// rssMB returns one field of the child's /proc/<pid>/status in MB:
// "VmHWM" is the peak resident set, "VmRSS" the current one.
func (c *child) rssMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusMB(string(b), field)
}

func parseStatusMB(status, field string) (float64, error) {
	for _, ln := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(ln, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// scrape fetches and parses the child's /metrics.
func (c *child) scrape() (map[string]float64, error) {
	cl := http.Client{Timeout: 5 * time.Second}
	resp, err := cl.Get("http://" + c.admin + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads the Prometheus text exposition format into
// name → value. Labelled series keep their label text in the key
// (`x_bucket{le="7"}`); comment and blank lines are skipped.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		ln := strings.TrimSpace(sc.Text())
		if ln == "" || ln[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(ln, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line without a value: %q", ln)
		}
		v, err := strconv.ParseFloat(ln[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", ln, err)
		}
		out[strings.TrimSpace(ln[:i])] = v
	}
	return out, sc.Err()
}
