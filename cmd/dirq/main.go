// Command dirq loads or generates a network directory and evaluates
// queries written in the surface syntax of "Querying Network
// Directories" (L0–L3), printing the matching entries and the page I/O
// the evaluation performed.
//
// Usage:
//
//	dirq -gen paper -q '(dc=att, dc=com ? sub ? objectClass=trafficProfile)'
//	dirq -ldif dir.ldif -q '(c (dc=com ? sub ? objectClass=TOPSSubscriber) (dc=com ? sub ? objectClass=QHP))'
//	dirq -gen tops -n 100 -ldap '(dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))'
//
// With -server the query is shipped to a running dirserve instance
// over the line protocol instead of evaluating locally; -timeout and
// -retries tune the pooled client's deadline and retry budget:
//
//	dirq -server 127.0.0.1:7001 -timeout 2s -retries 1 -q '(dc=com ? sub ? objectClass=dcObject)'
//
// With -peers the query is evaluated through a federating Coordinator:
// each "dn@addr" pair (pairs separated by ";") registers a zone served
// by a remote dirserve, and atomics under those subtrees are shipped to
// the owning replica. Combined with -explain the evaluation is traced
// end to end — a 128-bit trace ID rides the wire, every replica returns
// its span subtree, and dirq prints ONE merged tree with per-hop
// wire/serve/queue time split and the cross-process page-I/O
// conservation check (local + Σ remote = total):
//
//	dirq -peers 'dc=com@127.0.0.1:7001' -explain -q '(dc=com ? sub ? objectClass=dcObject)'
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps/qos"
	"repro/internal/core"
	"repro/internal/dirserver"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/plist"
	"repro/internal/query"
	"repro/internal/workload"
)

func main() {
	var (
		ldifPath    = flag.String("ldif", "", "load the directory from this LDIF file")
		gen         = flag.String("gen", "", "generate a directory: paper | forest | qos | tops")
		n           = flag.Int("n", 200, "size parameter for generated directories")
		seed        = flag.Int64("seed", 1, "generator seed")
		queryStr    = flag.String("q", "", "L0..L3 query to evaluate")
		ldapStr     = flag.String("ldap", "", "LDAP baseline query to evaluate")
		noIndex     = flag.Bool("noindex", false, "disable attribute indexes (scan-only atomic evaluation)")
		cacheBytes  = flag.Int64("cache", 0, "enable the query-result cache with this byte budget (0 = off)")
		optimize    = flag.Bool("optimize", false, "run the algebraic planner before evaluation")
		interactive = flag.Bool("i", false, "interactive mode: read one query per line from stdin")
		explain     = flag.Bool("explain", false, "print the query plan, then evaluate with tracing on and print the per-operator span tree (wall time, cardinalities, page I/O)")
		audit       = flag.String("audit", "", "audit the QoS policies of this domain DN for conflicts")
		quiet       = flag.Bool("quiet", false, "print only the count and I/O statistics")
		openSnap    = flag.String("open", "", "open a directory snapshot instead of generating/loading")
		saveSnap    = flag.String("save", "", "save the directory as a snapshot to this path")
		server      = flag.String("server", "", "evaluate at this remote dirserve address instead of locally (-gen/-ldif still select the schema)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request deadline for -server calls")
		retries     = flag.Int("retries", 2, "transient-failure retries for -server calls")
		peers       = flag.String("peers", "", `federate through a Coordinator: ";"-separated "dn@addr" zone registrations (-explain traces across the wire)`)
	)
	flag.Parse()
	opts := core.Options{NoAttrIndex: *noIndex, Optimize: *optimize, CacheBytes: *cacheBytes}

	if *server != "" {
		runRemote(*server, *timeout, *retries, *ldifPath, *gen, *n, *seed, *queryStr, *ldapStr)
		return
	}

	var dir *core.Directory
	if *openSnap != "" {
		f, err := os.Open(*openSnap)
		if err != nil {
			fatal(err)
		}
		dir, err = core.OpenSnapshot(f, opts)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		in, err := loadInstance(*ldifPath, *gen, *n, *seed)
		if err != nil {
			fatal(err)
		}
		dir, err = core.Open(in, opts)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("directory: %d entries\n", dir.Count())

	if *saveSnap != "" {
		f, err := os.Create(*saveSnap)
		if err != nil {
			fatal(err)
		}
		if err := dir.SaveSnapshot(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot saved to %s\n", *saveSnap)
		if *queryStr == "" && *ldapStr == "" && *audit == "" && !*interactive {
			return
		}
	}

	if *audit != "" {
		conflicts, err := qos.Audit(dir, *audit)
		if err != nil {
			fatal(err)
		}
		for _, c := range conflicts {
			fmt.Printf("conflict: %s vs %s — %s\n", c.P1.DN().RDN(), c.P2.DN().RDN(), c.Reason)
		}
		fmt.Printf("%d potential conflicts in %s\n", len(conflicts), *audit)
		if *queryStr == "" && *ldapStr == "" {
			return
		}
	}

	if *explain && *queryStr != "" {
		ex, err := dir.ExplainQuery(*queryStr)
		if err != nil {
			fatal(err)
		}
		fmt.Print(ex)
	}

	if *peers != "" {
		if *queryStr == "" {
			fmt.Fprintln(os.Stderr, "dirq: -peers needs -q")
			os.Exit(2)
		}
		runFederated(dir, *peers, *queryStr, *explain, *quiet)
		return
	}

	switch {
	case *queryStr != "" && *explain:
		runTraced(dir, *queryStr, *quiet)
	case *queryStr != "":
		runQuery(dir, *queryStr, false, *quiet)
	case *ldapStr != "":
		runQuery(dir, *ldapStr, true, *quiet)
	case *interactive:
		repl(dir, *quiet)
	default:
		fmt.Fprintln(os.Stderr, "dirq: provide -q, -ldap, or -i")
		flag.Usage()
		os.Exit(2)
	}
	if *cacheBytes > 0 {
		st := dir.CacheStats()
		fmt.Printf("cache: %d entries (%d/%d bytes), hits %d, misses %d, hit rate %.2f\n",
			st.Entries, st.Bytes, st.MaxBytes, st.Hits, st.Misses, st.HitRate())
	}
}

// runFederated evaluates through a Coordinator federating the zones
// registered by -peers. With explain the evaluation is traced across
// the wire and the merged span tree is printed with the cross-process
// I/O conservation check.
func runFederated(dir *core.Directory, peers, text string, explain, quiet bool) {
	var reg dirserver.Registry
	for _, pair := range strings.Split(peers, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		i := strings.LastIndex(pair, "@")
		if i < 0 {
			fatal(fmt.Errorf("bad -peers entry %q: want dn@addr", pair))
		}
		dn, err := model.ParseDN(pair[:i])
		if err != nil {
			fatal(fmt.Errorf("bad -peers DN in %q: %w", pair, err))
		}
		reg.Register(dn, strings.TrimSpace(pair[i+1:]))
	}
	coord := dirserver.NewCoordinatorWith(dir, &reg, "", dirserver.CoordinatorConfig{})
	defer coord.Close()

	if !explain {
		entries, err := coord.Search(context.Background(), text)
		if err != nil {
			fatal(err)
		}
		if !quiet {
			for _, e := range entries {
				fmt.Println(e)
				fmt.Println()
			}
		}
		fmt.Printf("%d entries via coordinator\n", len(entries))
		return
	}

	entries, root, err := coord.SearchTraced(context.Background(), text)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		for _, e := range entries {
			fmt.Println(e)
			fmt.Println()
		}
	}
	fmt.Println("distributed execution profile:")
	root.Format(os.Stdout)
	if cerr := root.CheckConservation(); cerr != nil {
		fmt.Printf("I/O conservation: FAILED — %v\n", cerr)
	} else {
		total := root.TreeIO()
		remote := total.Sub(root.IO)
		fmt.Printf("I/O conservation: ok — total %d page accesses = local %d + Σ remote %d (%d hops)\n",
			total.IO(), root.IO.IO(), remote.IO(), len(root.RemoteRoots()))
	}
	fmt.Printf("%d entries\n", len(entries))
}

// runRemote ships one query to a dirserve instance through the pooled
// retrying client. The local instance (default: the paper's) supplies
// only the schema for decoding the wire entries.
func runRemote(addr string, timeout time.Duration, retries int, ldifPath, gen string, n int, seed int64, queryStr, ldapStr string) {
	kind, text := "query", queryStr
	if text == "" {
		kind, text = "ldap", ldapStr
	}
	if text == "" {
		fmt.Fprintln(os.Stderr, "dirq: -server needs -q or -ldap")
		os.Exit(2)
	}
	in, err := loadInstance(ldifPath, gen, n, seed)
	if err != nil {
		fatal(err)
	}
	attempts := retries + 1
	if attempts < 1 {
		attempts = 1
	}
	if retries <= 0 {
		retries = -1 // ClientConfig: negative disables, zero means default
	}
	cl := dirserver.NewClient(in.Schema(), dirserver.ClientConfig{
		RequestTimeout: timeout,
		MaxRetries:     retries,
	})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(attempts)*(timeout+time.Second))
	defer cancel()
	start := time.Now()
	entries, err := cl.Call(ctx, addr, kind, text)
	if err != nil {
		fatal(err)
	}
	for _, e := range entries {
		fmt.Println(e)
		fmt.Println()
	}
	st := cl.Stats()
	fmt.Printf("%d entries from %s in %v (retries: %d)\n", len(entries), addr, time.Since(start).Round(time.Millisecond), st.Retries)
}

// runTraced evaluates with the obs tracer attached and prints the
// annotated span tree: one line per operator with input/output
// cardinalities, self and subtree page I/O, and wall time.
func runTraced(dir *core.Directory, text string, quiet bool) {
	res, root, err := dir.SearchTraced(text)
	if err != nil {
		fatal(err)
	}
	if !quiet {
		for _, e := range res.Entries {
			fmt.Println(e)
			fmt.Println()
		}
	}
	fmt.Println("execution profile:")
	root.Format(os.Stdout)
	fmt.Printf("%d entries, I/O: %s (total %d page accesses)\n",
		len(res.Entries), res.IO, res.IO.IO())
}

func runQuery(dir *core.Directory, text string, asLDAP, quiet bool) {
	q, res, err := search(dir, text, asLDAP)
	if err != nil {
		fatal(err)
	}
	if !asLDAP {
		fmt.Printf("query language: %s\n", q.Language())
	}
	if !quiet {
		for _, e := range res.Entries {
			fmt.Println(e)
			fmt.Println()
		}
	}
	fmt.Printf("%d entries, I/O: %s (total %d page accesses)\n",
		len(res.Entries), res.IO, res.IO.IO())
}

// search parses text in the LDAP baseline syntax or as an L0..L3 query,
// evaluates it and decodes the answer's records into its Entries.
func search(dir *core.Directory, text string, asLDAP bool) (query.Query, *core.Result, error) {
	var q query.Query
	var err error
	if asLDAP {
		q, err = query.ParseLDAP(text)
	} else {
		q, err = query.Parse(text)
	}
	if err != nil {
		return nil, nil, err
	}
	res, _, err := dir.SearchWith(context.Background(), core.Request{Query: q})
	if err != nil {
		return q, nil, err
	}
	res.Entries, err = plist.SectionEntries(res.Records)
	return q, res, err
}

// repl reads one query per line from stdin. Lines starting with "ldap "
// use the baseline language; everything else is parsed as L0..L3.
func repl(dir *core.Directory, quiet bool) {
	fmt.Println(`dirq: one query per line ("ldap (…)" for the baseline, ctrl-D to exit)`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		asLDAP := false
		if strings.HasPrefix(line, "ldap ") {
			asLDAP, line = true, strings.TrimPrefix(line, "ldap ")
		}
		_, res, err := search(dir, line, asLDAP)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if !quiet {
			for _, e := range res.Entries {
				fmt.Println("  " + e.DN().String())
			}
		}
		fmt.Printf("%d entries, %d page I/Os\n", len(res.Entries), res.IO.IO())
	}
}

func loadInstance(path, gen string, n int, seed int64) (*model.Instance, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ldif.Read(f, nil)
	}
	switch gen {
	case "", "paper":
		return workload.PaperInstance(), nil
	case "forest":
		return workload.RandomForest(workload.ForestConfig{N: n, Seed: seed}), nil
	case "qos":
		return workload.GenQoS(workload.QoSConfig{Domains: 1 + n/50, PoliciesPerDomain: 50, Seed: seed}), nil
	case "tops":
		return workload.GenTOPS(workload.TOPSConfig{Subscribers: n, Seed: seed}), nil
	default:
		return nil, fmt.Errorf("dirq: unknown generator %q", gen)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dirq:", err)
	os.Exit(1)
}
