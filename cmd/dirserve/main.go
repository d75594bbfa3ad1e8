// Command dirserve serves a network directory subtree over TCP using
// the line protocol of internal/dirserver, the substrate of the
// Section 8.3 distributed evaluation.
//
// Usage:
//
//	dirserve -ldif dir.ldif -addr 127.0.0.1:7001
//	dirserve -gen tops -n 300 -addr 127.0.0.1:0
//
// With -admin an HTTP listener exposes Prometheus /metrics, a JSON
// /statusz, /debug/pprof, and the query flight recorder at
// /debug/queries — the last -flight completed query traces (full span
// trees, canonical query, generation, result hash), filterable by
// ?min_ms= / ?min_io= / ?errors=1 and fetchable in full by ?trace=ID;
// -slowlog emits one-line JSON (now carrying the generation and trace
// ID) for every query crossing the -slow-ms or -slow-io threshold (and
// every failed query):
//
//	dirserve -gen forest -n 2000 -admin 127.0.0.1:9090 -flight 512 -slowlog slow.jsonl -slow-ms 50
//
// With -data the directory is durable: on boot the newest intact
// checkpoint generation is recovered (corrupt ones are verified against
// their checksums and rolled past); -gen/-ldif/-open only seed an empty
// store. With -mutable the server accepts "add"/"del" requests, and
// with -checkpoint-every 0 each one is checkpointed — a page delta
// appended to the newest log file and fsynced, or a full image in a new
// one — before it is acknowledged: an acked write survives kill -9. A positive
// -checkpoint-every trades that guarantee for amortized periodic
// checkpoints; SIGTERM always takes a final checkpoint after draining.
//
//	dirserve -gen paper -data /var/lib/dirkit -mutable -checkpoint-every 0
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/durable"
	"repro/internal/faultfs"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/workload"
)

var (
	idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "close client connections idle longer than this (0 = never)")
	writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-response write deadline (0 = none)")
	grace        = flag.Duration("grace", 5*time.Second, "drain in-flight connections this long on shutdown before force-closing")
	adminAddr    = flag.String("admin", "", "HTTP admin listener address for /metrics, /statusz, /debug/pprof (off when empty)")
	slowlogPath  = flag.String("slowlog", "", `slow-query log destination: a file path, or "stderr" (off when empty)`)
	slowMs       = flag.Duration("slow-ms", 100*time.Millisecond, "log queries at least this slow (0 disables the latency threshold)")
	slowIO       = flag.Int64("slow-io", 0, "log queries costing at least this many page I/Os (0 disables the I/O threshold)")
	cacheBytes   = flag.Int64("cache", 0, "enable the served directory's query-result cache with this byte budget (0 = off)")
	optimize     = flag.Bool("optimize", false, "run the algebraic planner on every served query")
	flightN      = flag.Int("flight", 256, "retain the last N completed query traces in the flight recorder at /debug/queries (0 = off)")

	dataDir   = flag.String("data", "", "durable store directory: recover on boot, checkpoint while serving (off when empty)")
	ckptEvery = flag.Duration("checkpoint-every", 0, "checkpoint cadence: 0 = synchronously before acknowledging each write, >0 = periodic background checkpoints")
	keepGens  = flag.Int("keep", 0, "newest checkpoint log files to retain as rollback rungs, each a full image and the deltas on it (0 = the durable store's default, 3)")
	mutable   = flag.Bool("mutable", false, `accept "add" and "del" requests (read-only without it)`)
	deltaCkpt = flag.Bool("delta-checkpoints", false, "checkpoint writes as page deltas against the previous generation when possible (full images otherwise)")
	faultProb = flag.Float64("fault-prob", 0, "inject storage faults (torn/short writes, fsync errors) with this probability — crash-harness use only")
	faultSeed = flag.Int64("fault-seed", 1, "deterministic seed for -fault-prob injection")
)

// options assembles the served directory's core.Options from the flags.
func options() core.Options {
	return core.Options{CacheBytes: *cacheBytes, Optimize: *optimize,
		DeltaCheckpoints: *deltaCkpt}
}

func main() {
	var (
		ldifPath = flag.String("ldif", "", "load the served directory from this LDIF file")
		snapPath = flag.String("open", "", "serve a directory snapshot (as written by dirq -save)")
		gen      = flag.String("gen", "paper", "or generate: paper | forest | qos | tops")
		n        = flag.Int("n", 200, "size parameter for generated directories")
		seed     = flag.Int64("seed", 1, "generator seed")
		addr     = flag.String("addr", "127.0.0.1:7001", "listen address")
	)
	flag.Parse()

	// Open the durable store first: an existing checkpoint beats every
	// bootstrap source, so a restart resumes the durable lineage rather
	// than regenerating from -gen and forking history.
	var ds *durable.Store
	if *dataDir != "" {
		var err error
		if ds, err = openDurable(); err != nil {
			fatal(err)
		}
		dir, info, err := core.Recover(ds, options())
		if err != nil {
			fatal(err)
		}
		if !info.Fresh {
			fmt.Printf("dirserve: recovered generation %d from %s (skipped %d corrupt)\n", info.Gen, *dataDir, info.Skipped)
			serve(dir, ds, *addr)
			return
		}
		// Fresh store: fall through to the bootstrap sources below; the
		// seeded directory is checkpointed as generation 1 before serving.
	}

	if *snapPath != "" {
		f, err := os.Open(*snapPath)
		if err != nil {
			fatal(err)
		}
		dir, err := core.OpenSnapshot(f, options())
		f.Close()
		if err != nil {
			fatal(err)
		}
		serve(dir, ds, *addr)
		return
	}

	var in *model.Instance
	var err error
	if *ldifPath != "" {
		f, ferr := os.Open(*ldifPath)
		if ferr != nil {
			fatal(ferr)
		}
		in, err = ldif.Read(f, nil)
		f.Close()
	} else {
		switch *gen {
		case "paper":
			in = workload.PaperInstance()
		case "forest":
			in = workload.RandomForest(workload.ForestConfig{N: *n, Seed: *seed})
		case "qos":
			in = workload.GenQoS(workload.QoSConfig{Domains: 1 + *n/50, PoliciesPerDomain: 50, Seed: *seed})
		case "tops":
			in = workload.GenTOPS(workload.TOPSConfig{Subscribers: *n, Seed: *seed})
		default:
			err = fmt.Errorf("unknown generator %q", *gen)
		}
	}
	if err != nil {
		fatal(err)
	}
	dir, err := core.Open(in, options())
	if err != nil {
		fatal(err)
	}
	serve(dir, ds, *addr)
}

// openDurable opens (creating if needed) the -data checkpoint store; a
// directory in the earlier segment-and-MANIFEST layout is refused
// (durable.ErrLegacyStore). With -fault-prob the
// filesystem is wrapped in the deterministic fault injector — the crash
// harness's way of testing the commit protocol against torn writes and
// failing fsyncs.
func openDurable() (*durable.Store, error) {
	fs, err := pager.DirFS(*dataDir)
	if err != nil {
		return nil, err
	}
	if *faultProb > 0 {
		fs = faultfs.Wrap(fs, faultfs.Config{
			Seed:       *faultSeed,
			TornWrite:  *faultProb,
			ShortWrite: *faultProb / 2,
			SyncErr:    *faultProb / 2,
		})
	}
	return durable.Open(fs, durable.Options{Keep: *keepGens})
}

// slowLog builds the slow-query log from the -slowlog/-slow-ms/-slow-io
// flags (nil when disabled — the server treats a nil SlowLog as off).
func slowLog() *obs.SlowLog {
	if *slowlogPath == "" {
		return nil
	}
	w := os.Stderr
	if *slowlogPath != "stderr" {
		f, err := os.OpenFile(*slowlogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		w = f
	}
	return obs.NewSlowLog(w, *slowMs, *slowIO)
}

func serve(dir *core.Directory, ds *durable.Store, addr string) {
	reg := obs.NewRegistry()
	dir.RegisterMetrics(reg)
	var flight *obs.FlightRecorder
	if *flightN > 0 {
		flight = obs.NewFlightRecorder(*flightN)
		flight.RegisterMetrics(reg, "dirkit_flight")
	}
	cfg := dirserver.ServerConfig{
		IdleTimeout:  *idleTimeout,
		WriteTimeout: *writeTimeout,
		Grace:        *grace,
		Mutable:      *mutable,
		Metrics:      obs.NewQueryMetrics(reg, "dirkit_server"),
		SlowLog:      slowLog(),
		Flight:       flight,
	}

	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	if ds != nil {
		ds.RegisterMetrics(reg, "dirkit_durable")
		// Seed generation 1 before listening: a server that crashes on
		// its very first write still has a rung to recover to.
		if _, err := dir.Checkpoint(ds); err != nil {
			fatal(err)
		}
		if *ckptEvery == 0 {
			// Durable acks: the write path checkpoints synchronously
			// before replying, so an acknowledged add/del survives
			// kill -9 from the instant the client sees it.
			cfg.AfterUpdate = func() error {
				_, err := dir.Checkpoint(ds)
				return err
			}
			close(ckptDone)
		} else {
			// Amortized mode: a background loop checkpoints on a cadence;
			// writes between ticks are acknowledged from memory only.
			go func() {
				defer close(ckptDone)
				t := time.NewTicker(*ckptEvery)
				defer t.Stop()
				for {
					select {
					case <-ckptStop:
						return
					case <-t.C:
						if _, err := dir.Checkpoint(ds); err != nil {
							fmt.Fprintln(os.Stderr, "dirserve: checkpoint:", err)
						}
					}
				}
			}()
		}
	} else {
		close(ckptDone)
	}
	srv, err := dirserver.ServeWith(dir, addr, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("dirserve: %d entries on %s\n", dir.Count(), srv.Addr())

	if *adminAddr != "" {
		admin, err := obs.ServeAdminWith(*adminAddr, reg, func() any {
			return map[string]any{
				"addr":       srv.Addr(),
				"entries":    dir.Count(),
				"generation": dir.Generation(),
			}
		}, flight)
		if err != nil {
			fatal(err)
		}
		defer admin.Close()
		fmt.Printf("dirserve: admin on http://%s (/metrics, /statusz, /debug/pprof, /debug/queries)\n", admin.Addr())
	}

	// SIGINT for interactive use, SIGTERM for process managers: both
	// drain in-flight connections for up to -grace, then force-close.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("dirserve: %v — draining for up to %v\n", s, *grace)
	_ = srv.Close()
	if ds != nil {
		// The drain above completed or excluded every in-flight Update;
		// one final checkpoint makes whatever generation survived the
		// drain durable. The background loop is stopped first so the two
		// never race on a half-drained state.
		close(ckptStop)
		<-ckptDone
		if gen, err := dir.Checkpoint(ds); err != nil {
			fmt.Fprintln(os.Stderr, "dirserve: final checkpoint:", err)
		} else {
			fmt.Printf("dirserve: checkpointed generation %d\n", gen)
		}
	}
	fmt.Println("dirserve: shut down")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dirserve:", err)
	os.Exit(1)
}
