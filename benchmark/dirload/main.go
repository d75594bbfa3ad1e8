// Command dirload is the repository's benchmark: it builds cmd/dirserve,
// starts it as a child process per workload, drives it over TCP with
// dirserver.Client on two connections, checks every reply against an
// in-process oracle, and reports end-to-end metrics (timed run) or a
// per-layer breakdown (traced run). It touches no product code: layers
// are measured from outside. See ../README.md.
//
// The driver's contract (BENCHMARK.json):
//
//	dirload --workload lookup --seed 1 --seconds 10 --trace 0
//
// prints every metric by name and, as the last line of stdout, one JSON
// object {correct, attempted, failed, metrics}. Other modes:
//
//	dirload                      all four workloads, timed + traced, into -out
//	dirload -repeat 10           the same, ten timed runs (seeds seed..seed+9) each
//	dirload -smoke               all four at toy size, a few seconds in total
//	dirload -compare A.json B.json
//	dirload -write-golden        regenerate benchmark/golden.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// goldenPath is where the pinned answers live, relative to the repository
// root every mode runs from.
const goldenPath = "benchmark/golden.json"

var (
	workloadFlag = flag.String("workload", "", "run one workload (lookup | analytic | policy | provision) and print the driver's result line")
	seedFlag     = flag.Int64("seed", 1, "workload seed: the generated directory and every request stream derive from it")
	secondsFlag  = flag.Float64("seconds", 10, "length of the measured window")
	traceFlag    = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeatFlag   = flag.Int("repeat", 1, "full run: timed runs per workload, on consecutive seeds")
	outFlag      = flag.String("out", "benchmark/out/result.json", "full run: result file")
	smokeFlag    = flag.Bool("smoke", false, "run all four workloads end to end at toy size")
	compareFlag  = flag.Bool("compare", false, "compare two result files: dirload -compare A.json B.json")
	goldenWrite  = flag.Bool("write-golden", false, "regenerate "+goldenPath)
	workDirFlag  = flag.String("workdir", ".bench_build", "scratch directory for the server binary, data directories and probe files")
)

func main() {
	flag.Parse()
	code, err := dispatch()
	killAllChildren()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dirload:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func dispatch() (int, error) {
	if *compareFlag {
		if flag.NArg() != 2 {
			return 2, fmt.Errorf("usage: dirload -compare A.json B.json")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if *goldenWrite {
		return 0, writeGolden(goldenPath)
	}

	// Every run reaps its children, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	if err := os.MkdirAll(*workDirFlag, 0o755); err != nil {
		return 1, err
	}
	workDir, err := os.MkdirTemp(*workDirFlag, "dirload-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(workDir)
	cfg := config{seed: *seedFlag, seconds: *secondsFlag, warm: warmSeconds, workDir: workDir, outDir: "benchmark/out"}
	if cfg.server, err = ensureServer(*workDirFlag); err != nil {
		return 1, err
	}

	switch {
	case *smokeFlag:
		return smoke(cfg)
	case *workloadFlag != "":
		return single(cfg)
	default:
		return full(cfg)
	}
}

// ensureServer builds the dirserve binary under test from this checkout.
func ensureServer(workDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(workDir, "bin", "dirserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dirserve")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/dirserve (run dirload from the repository root): %w", err)
	}
	return bin, nil
}

func runOne(s *spec, cfg config, trace int) (*result, error) {
	if trace != 0 {
		return tracedRun(s, cfg)
	}
	return timedRun(s, cfg)
}

func printResult(r *result) {
	defs := endToEnd
	if r.Trace != 0 {
		defs = perLayer
	}
	fmt.Printf("%s seed %d trace %d: attempted %d, failed %d, correct %v\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed, r.Correct)
	for _, d := range defs {
		fmt.Printf("  %-32s %16.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, name := range sortedKeys(r.Diag) {
		fmt.Printf("  %-32s %16.4f (diagnostic)\n", name, r.Diag[name])
	}
}

// single is the driver's contract: one workload, one seed, one mode;
// the last stdout line is the result object.
func single(cfg config) (int, error) {
	s := specByName(*workloadFlag)
	if s == nil {
		return 2, fmt.Errorf("unknown workload %q", *workloadFlag)
	}
	// The driver allows 180 s; leave before it has to kill us, children
	// reaped.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "dirload: run exceeded 170 s")
		killAllChildren()
		os.Exit(1)
	})
	var err error
	if cfg.golden, err = readGolden(goldenPath); err != nil {
		return 1, err
	}
	r, err := runOne(s, cfg, *traceFlag)
	if err != nil {
		return 1, err
	}
	printResult(r)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

// environment is what a result file records about where it was measured.
type environment struct {
	Commit          string  `json:"commit"`
	GoVersion       string  `json:"go_version"`
	CPUModel        string  `json:"cpu_model"`
	NProc           int     `json:"nproc"`
	ChildGOMAXPROCS string  `json:"child_gomaxprocs"`
	Seed            int64   `json:"seed"`
	Seconds         float64 `json:"seconds"`
}

func captureEnv(cfg config) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), ChildGOMAXPROCS: os.Getenv("GOMAXPROCS"),
		Seed: cfg.seed, Seconds: cfg.seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, ln := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(ln, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if env.ChildGOMAXPROCS == "" {
		env.ChildGOMAXPROCS = fmt.Sprintf("%d (default)", runtime.NumCPU())
	}
	return env
}

// resultFile is what a full run writes and -compare reads.
type resultFile struct {
	Env      environment `json:"env"`
	EndToEnd []metricDef `json:"end_to_end"`
	Runs     []*result   `json:"runs"`
}

// full runs every workload: -repeat timed runs on consecutive seeds,
// then one traced run, and writes them all to -out.
func full(cfg config) (int, error) {
	var err error
	if cfg.golden, err = readGolden(goldenPath); err != nil {
		return 1, err
	}
	file := resultFile{Env: captureEnv(cfg), EndToEnd: endToEnd}
	code := 0
	for _, s := range specs {
		for i := 0; i <= *repeatFlag; i++ {
			c, trace := cfg, 0
			c.seed = cfg.seed + int64(i)
			if i == *repeatFlag { // the traced run, on the first seed
				c.seed, trace = cfg.seed, 1
			}
			r, err := runOne(s, c, trace)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", s.name, err)
			}
			printResult(r)
			if !r.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, r)
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return 1, err
	}
	if err := os.MkdirAll(filepath.Dir(*outFlag), 0o755); err != nil {
		return 1, err
	}
	if err := os.WriteFile(*outFlag, append(b, '\n'), 0o644); err != nil {
		return 1, err
	}
	fmt.Printf("wrote %s\n", *outFlag)
	return code, nil
}

// smoke runs all four workloads end to end, timed and traced, on toy
// directories with sub-second windows: a few seconds in total, for CI.
// The numbers mean nothing; the checks (oracle, durability, span
// arithmetic) are the real ones.
func smoke(cfg config) (int, error) {
	cfg.seconds, cfg.warm = 0.3, 0.1
	code := 0
	for _, s := range specs {
		for trace := 0; trace <= 1; trace++ {
			r, err := runOne(s.scaled(), cfg, trace)
			if err != nil {
				return 1, fmt.Errorf("%s: %w", s.name, err)
			}
			fmt.Printf("smoke %-10s trace %d: attempted %d, failed %d\n", s.name, trace, r.Attempted, r.Failed)
			if !r.Correct {
				code = 1
			}
		}
	}
	return code, nil
}

// writeGolden pins the oracle's answers for the golden seeds.
func writeGolden(path string) error {
	g := goldenFile{}
	for _, s := range specs {
		g[s.name] = map[string][]goldenRow{}
		pool := s.pool()
		for _, seed := range goldenSeeds {
			ref, err := core.Open(s.instance(seed), core.Options{})
			if err != nil {
				return err
			}
			want, err := evalPool(ref, pool)
			if err != nil {
				return err
			}
			g[s.name][fmt.Sprint(seed)] = goldenRows(seed, pool, want)
		}
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false) // queries are full of < and >
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
