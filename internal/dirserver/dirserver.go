// Package dirserver implements the distributed side of "Querying
// Network Directories": DNS-style delegation of the hierarchical
// namespace to directory servers (Section 3.3), a line-oriented query
// protocol over TCP, and the distributed query evaluation strategy of
// Section 8.3 — each atomic sub-query whose base DN is managed by
// another server is shipped to that server; the sorted result lists
// come back to the queried server, which runs the operator pipeline
// locally.
//
// The layer is hardened for real networks: every round trip runs under
// a deadline, the pooled Client retries transient transport failures
// with capped backoff, and the Coordinator's per-address circuit
// breakers skip unhealthy primaries in favor of secondaries (the
// paper's footnote 4: "one unreachable network will not necessarily
// cut off network directory service").
package dirserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"encoding/json"

	"repro/internal/core"
	"repro/internal/ldif"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/plist"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/store"
)

// Registry is the delegation map of the directory information forest:
// which server owns which namespace subtree. It plays the role DNS
// plays for the paper's deployment story ("these directory servers can
// be located efficiently using mechanisms similar to those used in
// DNS").
type Registry struct {
	mu    sync.RWMutex
	zones []zone
}

type zone struct {
	key   string // reverse-DN key prefix of the delegated subtree
	dn    string
	addrs []string // primary first, then secondaries
}

// Register delegates the subtree rooted at domain to the given servers:
// a primary and, optionally, secondaries tried in order when the
// primary is unreachable ("Secondary directory servers ensure that one
// unreachable network will not necessarily cut off network directory
// service" — the paper's footnote 4). More specific (deeper)
// delegations take precedence, exactly as DNS subdomain delegation
// does.
func (r *Registry) Register(domain model.DN, addrs ...string) {
	if len(addrs) == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.zones = append(r.zones, zone{key: domain.Key(), dn: domain.String(), addrs: addrs})
	sort.SliceStable(r.zones, func(i, j int) bool { return len(r.zones[i].key) > len(r.zones[j].key) })
}

// Lookup returns the primary server owning dn: the registered zone with
// the longest key prefix of dn's key.
func (r *Registry) Lookup(dn model.DN) (addr string, ok bool) {
	addrs, ok := r.LookupAll(dn)
	if !ok {
		return "", false
	}
	return addrs[0], true
}

// LookupAll returns every server (primary first) for the zone owning
// dn.
func (r *Registry) LookupAll(dn model.DN) ([]string, bool) {
	key := dn.Key()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, z := range r.zones { // sorted deepest-first
		if strings.HasPrefix(key, z.key) {
			return z.addrs, true
		}
	}
	return nil, false
}

// Zones lists the registered delegations (for tools).
func (r *Registry) Zones() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.zones))
	for i, z := range r.zones {
		out[i] = fmt.Sprintf("%s -> %s", z.dn, strings.Join(z.addrs, ", "))
	}
	return out
}

// request is one protocol message: a query to evaluate at the server.
// Kind is "atomic" (the distributed-evaluation workhorse), "query" (a
// full L0..L3 tree evaluated where it lands), "ldap", or — on servers
// started with ServerConfig.Mutable — "add" (Query carries one LDIF
// entry block) or "del" (Query carries a DN).
//
// The optional trace-context fields implement distributed tracing
// (DESIGN.md §13): Trace carries the 128-bit trace ID assigned at the
// query's entry point, Span the client-side span that issued this
// request (the remote subtree's parent), and BudgetMS the remaining
// deadline budget, so a server stops evaluating when the coordinator's
// deadline would discard the answer anyway.
type request struct {
	Kind  string `json:"kind"`
	Query string `json:"query"`

	Trace    string `json:"trace,omitempty"`
	Span     uint64 `json:"span,omitempty"`
	BudgetMS int64  `json:"budget_ms,omitempty"`
}

// response carries the sorted result entries as LDIF blocks, plus the
// serving directory's store generation — the remote cache-invalidation
// token: a coordinator caching this answer keys it by (address, atomic,
// Gen), so any later reply echoing a different generation makes every
// older cached answer from that server unreachable with one integer
// compare. Gen is scoped to one server process; a replica that
// restarts (fresh Directory, generation counter reset) must be treated
// as a new cache peer.
type response struct {
	Entries []string `json:"entries"`
	Gen     int64    `json:"gen,omitempty"`
	Err     string   `json:"err,omitempty"`

	// Trace is the server-side span subtree of this evaluation, returned
	// only when the request carried a trace ID. Its root has Host set to
	// the serving address and ParentID to the request's Span, so the
	// client grafts it into its own tree and dirq -explain renders one
	// merged tree across every process the query touched.
	Trace *obs.Span `json:"trace,omitempty"`
	// ServeUS and QueueUS split the server-side time (microseconds):
	// evaluation proper, and the lag between the request line arriving
	// and evaluation starting. The client derives wire time as its
	// round-trip elapsed minus both.
	ServeUS int64 `json:"serve_us,omitempty"`
	QueueUS int64 `json:"queue_us,omitempty"`
}

// maxRequestBytes caps one request line on the wire.
const maxRequestBytes = 1 << 22

// ServerConfig tunes a server's per-connection robustness knobs. The
// zero value means: no idle or write deadlines (trusted-network
// behavior), a 1s drain grace on Close, and hang-up after 8
// consecutive malformed request lines.
type ServerConfig struct {
	// IdleTimeout is the read deadline between requests on one
	// connection; idle connections past it are closed (0 = no limit).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (0 = no limit).
	WriteTimeout time.Duration
	// Grace bounds how long Close waits for in-flight connections to
	// drain before force-closing them (default 1s).
	Grace time.Duration
	// MaxBadRequests is the number of consecutive malformed request
	// lines tolerated on one connection before the server hangs up
	// (default 8). Each one is answered with a response{Err: ...}
	// first, so a single bad line never silently kills a pooled
	// connection.
	MaxBadRequests int
	// Mutable enables the "add" and "del" request kinds. Read-only
	// servers (the default) answer both with an error and leave the
	// directory untouched.
	Mutable bool
	// AfterUpdate, when non-nil, runs synchronously after each
	// successful mutation and before the reply is written. dirserve
	// installs a durable checkpoint here: the client's acknowledgment
	// then means the new generation has survived the full
	// write-temp → fsync → rename → fsync-dir protocol, so an ack
	// followed by kill -9 still recovers to (at least) that state. An
	// AfterUpdate error is reported to the client in place of success —
	// the mutation is applied in memory but was never promised durable.
	AfterUpdate func() error
	// Metrics, when non-nil, records every served request: count,
	// latency, page I/O and result-cardinality histograms.
	Metrics *obs.QueryMetrics
	// SlowLog, when non-nil, emits one-line JSON for requests crossing
	// its thresholds (and for every failed request).
	SlowLog *obs.SlowLog
	// Flight, when non-nil, retains the span tree of every served query
	// in the flight recorder (exposed at /debug/queries). Setting it
	// makes the server trace every query it serves; traced serving
	// bypasses the directory's result cache, trading cache hits for a
	// complete per-operator record of each request.
	Flight *obs.FlightRecorder
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Grace <= 0 {
		c.Grace = time.Second
	}
	if c.MaxBadRequests <= 0 {
		c.MaxBadRequests = 8
	}
	return c
}

// Server serves a namespace subtree from a core.Directory over TCP.
type Server struct {
	dir  *core.Directory
	ln   net.Listener
	cfg  ServerConfig
	wg   sync.WaitGroup
	done chan struct{}

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	closeOnce sync.Once
	closeErr  error
}

// Serve starts a server on addr (use "127.0.0.1:0" for an ephemeral
// port) with default robustness settings.
func Serve(dir *core.Directory, addr string) (*Server, error) {
	return ServeWith(dir, addr, ServerConfig{})
}

// ServeWith starts a server with explicit timeouts and drain behavior.
func ServeWith(dir *core.Directory, addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		dir:   dir,
		ln:    ln,
		cfg:   cfg.withDefaults(),
		done:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, then drains in-flight connections for at most
// the configured grace period before force-closing the stragglers. It
// is idempotent and safe to call concurrently.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.closeErr = s.ln.Close()
		// Let in-flight requests finish, but bound idle connections:
		// an expiring read deadline unblocks their next Scan.
		s.mu.Lock()
		for c := range s.conns {
			_ = c.SetReadDeadline(time.Now().Add(s.cfg.Grace))
		}
		s.mu.Unlock()
		drained := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(drained)
		}()
		t := time.NewTimer(s.cfg.Grace + s.cfg.Grace/2 + 100*time.Millisecond)
		defer t.Stop()
		select {
		case <-drained:
		case <-t.C:
			s.mu.Lock()
			for c := range s.conns {
				_ = c.Close()
			}
			s.mu.Unlock()
			<-drained
		}
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				_ = conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), maxRequestBytes)
	enc := json.NewEncoder(conn)
	bad := 0
	for {
		select {
		case <-s.done:
			return // draining: don't extend the grace deadline
		default:
		}
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		if !sc.Scan() {
			// A scanner-level failure that is not a timeout or hangup —
			// e.g. a request over the buffer cap — is reported to the
			// client before closing, not silently dropped. The rest of
			// the oversized line is drained first: closing with unread
			// bytes in the receive queue would RST the connection and
			// destroy the reply in flight.
			if err := sc.Err(); err != nil && !isNetShutdown(err) {
				if s.reply(conn, enc, response{Err: "bad request: " + err.Error()}) {
					s.drainLine(conn)
				}
			}
			return
		}
		// recv anchors the queue-time half of the server-side split: the
		// request line is in hand, evaluation has not started.
		recv := time.Now()
		if len(strings.TrimSpace(string(sc.Bytes()))) == 0 {
			continue
		}
		var req request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			// One malformed line answers with an error but keeps the
			// (possibly pooled) connection alive; a stream of them
			// hangs up.
			bad++
			if !s.reply(conn, enc, response{Err: "bad request: " + err.Error()}) || bad >= s.cfg.MaxBadRequests {
				return
			}
			continue
		}
		bad = 0
		if !s.reply(conn, enc, s.serveOne(req, recv)) {
			return
		}
	}
}

// drainLine swallows the remainder of an oversized request line (up to
// a hard cap, under a deadline) so the subsequent close is a graceful
// FIN rather than an RST that could race ahead of the error reply.
func (s *Server) drainLine(conn net.Conn) {
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 16*1024)
	var drained int64
	for drained < 16*maxRequestBytes {
		n, err := conn.Read(buf)
		for i := 0; i < n; i++ {
			if buf[i] == '\n' {
				return
			}
		}
		drained += int64(n)
		if err != nil {
			return
		}
	}
}

// reply writes one response under the write deadline; false means the
// connection is unusable.
func (s *Server) reply(conn net.Conn, enc *json.Encoder, res response) bool {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	return enc.Encode(res) == nil
}

// isNetShutdown reports errors that need no client-visible reply: the
// peer went away or a deadline expired.
func isNetShutdown(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, net.ErrClosed)
}

func (s *Server) serveOne(req request, recv time.Time) response {
	start := time.Now()
	queue := start.Sub(recv)
	var res *core.Result
	var root *obs.Span
	var gen int64
	var err error
	// A query request is traced when the caller propagated a trace ID
	// or the server records every query in its flight recorder.
	// Mutations are never traced: they have no operator tree.
	traced := req.Trace != "" || s.cfg.Flight != nil
	ctx, cancel := budgetCtx(req)
	defer cancel()
	switch req.Kind {
	case "add", "del":
		traced = false
		gen, err = s.applyWrite(req)
	case "atomic":
		var q query.Query
		q, err = query.Parse(req.Query)
		if err == nil {
			if _, ok := q.(*query.Atomic); !ok {
				err = fmt.Errorf("dirserver: %q is not atomic", req.Query)
			}
		}
		if err == nil {
			if traced {
				res, root, err = s.dir.SearchQueryTraced(ctx, q)
			} else {
				res, err = s.dir.SearchQuery(q)
			}
		}
	case "query":
		var q query.Query
		q, err = query.Parse(req.Query)
		if err == nil {
			if traced {
				res, root, err = s.dir.SearchQueryTraced(ctx, q)
			} else {
				res, err = s.dir.SearchQuery(q)
			}
		}
	case "ldap":
		if traced {
			res, root, err = s.dir.SearchLDAPTraced(ctx, req.Query)
		} else {
			res, err = s.dir.SearchLDAP(req.Query)
		}
	default:
		traced = false
		err = fmt.Errorf("dirserver: unknown request kind %q", req.Kind)
	}
	dur := time.Since(start)
	var io int64
	var entries int
	if res != nil {
		io = res.IO.IO()
		entries = len(res.Entries)
		gen = res.Gen
	}
	if root != nil {
		// Stamp the subtree as this process's: Host marks the boundary
		// the I/O-conservation law splits on, ParentID the client-side
		// span the subtree hangs under once merged.
		root.Host = s.Addr()
		root.ParentID = req.Span
	}
	traceID := req.Trace
	if traced && traceID == "" {
		traceID = obs.NewTraceID() // locally originated: still findable in /debug/queries
	}
	if s.cfg.Metrics != nil || s.cfg.SlowLog != nil {
		s.cfg.Metrics.Observe(dur, io, int64(entries), err != nil)
		s.cfg.SlowLog.Record(req.Kind, req.Query, gen, traceID, dur, io, entries, err)
	}
	if err != nil {
		s.record(req, traced, traceID, gen, dur, io, 0, 0, err, root)
		out := response{Err: err.Error(), ServeUS: dur.Microseconds(), QueueUS: queue.Microseconds()}
		if req.Trace != "" {
			// A lost or failed evaluation still returns its partial span
			// subtree, so the merged tree stays well-formed.
			out.Trace = root
		}
		return out
	}
	if req.Kind == "add" || req.Kind == "del" {
		// A write acknowledgment: no entries, just the generation the
		// mutation produced (already durable if AfterUpdate says so).
		return response{Gen: gen}
	}
	// Echo the generation the evaluation actually ran against (carried
	// on the Result), not the directory's current generation: an Update
	// swapping the store mid-evaluation must not stamp old entries with
	// the new generation, or remote caches would pin stale answers
	// under a fresh token.
	out := response{
		Entries: make([]string, len(res.Entries)), Gen: res.Gen,
		ServeUS: dur.Microseconds(), QueueUS: queue.Microseconds(),
	}
	hash := fnv.New64a()
	for i, e := range res.Entries {
		block := ldif.MarshalEntry(e)
		out.Entries[i] = block
		_, _ = hash.Write([]byte(block))
	}
	s.record(req, traced, traceID, gen, dur, io, entries, hash.Sum64(), nil, root)
	if req.Trace != "" {
		out.Trace = root
	}
	return out
}

// budgetCtx derives the evaluation context from the request's remaining
// deadline budget, so a server abandons work the coordinator would
// discard anyway. The returned cancel must be called.
func budgetCtx(req request) (context.Context, context.CancelFunc) {
	if req.BudgetMS <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), time.Duration(req.BudgetMS)*time.Millisecond)
}

// record retains one served query in the flight recorder (no-op when
// none is configured). The normalized query text, generation, result
// hash and full span tree make a retained trace comparable across
// repeats: same query + same generation should mean same hash.
// Queries that fail before evaluation starts (parse or validation
// errors) are retained too — with no span tree — so ?errors=1 shows
// every rejected query, not just the ones that died mid-evaluation.
func (s *Server) record(req request, traced bool, traceID string, gen int64, dur time.Duration, io int64, entries int, hash uint64, err error, root *obs.Span) {
	if s.cfg.Flight == nil || !traced {
		return
	}
	rec := &obs.FlightRecord{
		TraceID: traceID,
		Kind:    req.Kind,
		Query:   req.Query,
		Gen:     gen,
		Dur:     dur,
		IO:      io,
		Entries: entries,
		Hash:    hash,
		Root:    root,
	}
	// Normalize the display text through a parse/print round trip
	// (case folding, whitespace) — but not query.Canonical, whose
	// reverse-DN keys embed NUL separators and are unreadable.
	if q, perr := query.Parse(req.Query); perr == nil {
		rec.Query = q.String()
	}
	if err != nil {
		rec.Err = err.Error()
	}
	s.cfg.Flight.Record(rec)
}

// applyWrite executes one "add" or "del" mutation and returns the
// generation it produced (under concurrent writers: a generation that
// includes it). Malformed input fails before Update so the directory
// never swaps; the AfterUpdate hook (durable checkpoint) runs before
// the acknowledgment, so a successful reply is a durability promise
// when the server is configured that way.
func (s *Server) applyWrite(req request) (int64, error) {
	if !s.cfg.Mutable {
		return 0, fmt.Errorf("dirserver: read-only server rejects kind %q", req.Kind)
	}
	// Writes go through the entry-level fast path: the directory forks
	// its page device copy-on-write instead of rebuilding it, and a
	// server running with delta checkpoints then persists just the
	// dirtied pages. Mutations the fast path cannot express fall back
	// to a full rebuild inside UpdateEntries — same answers, one
	// generation either way. Malformed input still fails before the
	// directory is touched, so it never swaps.
	var op store.EntryOp
	switch req.Kind {
	case "add":
		e, err := ldif.UnmarshalEntry(s.dir.Schema(), req.Query)
		if err != nil {
			return 0, fmt.Errorf("dirserver: add: %w", err)
		}
		op = store.EntryOp{Add: e}
	case "del":
		dn, err := model.ParseDN(req.Query)
		if err != nil {
			return 0, fmt.Errorf("dirserver: del: %w", err)
		}
		op = store.EntryOp{Remove: dn}
	}
	if err := s.dir.UpdateEntries(op); err != nil {
		return 0, fmt.Errorf("dirserver: %s: %w", req.Kind, err)
	}
	gen := s.dir.Generation()
	if s.cfg.AfterUpdate != nil {
		if err := s.cfg.AfterUpdate(); err != nil {
			return 0, fmt.Errorf("dirserver: update applied but not durable: %w", err)
		}
	}
	return gen, nil
}

// CoordinatorConfig tunes the coordinator's client and failover
// behavior; the zero value uses the ClientConfig and BreakerConfig
// defaults.
type CoordinatorConfig struct {
	Client  ClientConfig
	Breaker BreakerConfig
	// CacheBytes enables the remote-result cache when positive: answers
	// to remote atomics are kept within this byte budget, keyed by
	// (replica address, the store generation echoed in its reply,
	// canonical query text). A reply echoing a new generation makes
	// every older answer from that replica unreachable at once.
	CacheBytes int64
	// CacheTTL bounds how long a cached answer is served in place of a
	// round trip (default 1s when the cache is enabled). When every
	// replica of a zone is unreachable, generation-current answers of
	// any age are served instead — the cache masks the outage rather
	// than letting a flaky network take recently answered queries down
	// with it.
	CacheTTL time.Duration
}

// CoordinatorStats is a concurrency-safe snapshot of a coordinator's
// distributed-evaluation counters.
type CoordinatorStats struct {
	RemoteAtomics int64 // atomic sub-queries shipped to other servers
	LocalAtomics  int64 // delegated atomics that resolved to this server
	Retries       int64 // transport retries performed by the pooled client
	Failovers     int64 // atomics that fell over to a later replica
	BreakerTrips  int64 // breakers tripped open
	BreakerSkips  int64 // replicas skipped because their breaker was open
	CacheHits     int64 // remote atomics answered from the result cache
	CacheMasked   int64 // unreachable zones masked by a cached answer
}

// Coordinator evaluates full query trees the Section 8.3 way: atomic
// sub-queries owned by other servers are shipped to them; their sorted
// results are materialized locally and fed into this server's operator
// pipeline. Remote calls run under the caller's context through the
// pooled retrying Client, and per-address breakers steer around
// unhealthy replicas.
//
// Each Search evaluates like core.Directory's: it loads the directory's
// current snapshot once and runs on a session over a fresh per-query
// arena, with this coordinator's resolver bound to that session alone.
// Local atomics, remote answers, intermediates and results all land on
// the arena's scratch disk; the directory's store disk is only read.
// So Search takes no lock, any number run concurrently with exact
// per-query I/O, a coordinator follows the directory's updates, and
// plain dir.Search calls never see the resolver. Within one query, an
// engine built with Workers > 1 evaluates independent subtrees
// concurrently, and their atomic sub-queries fan out to replicas in
// parallel: the pooled client, breakers, result cache, and stats all
// carry their own synchronization (DESIGN.md §9).
type Coordinator struct {
	dir      *core.Directory
	reg      *Registry
	selfAddr string
	client   *Client
	health   *health

	// Remote-result cache (nil unless CoordinatorConfig.CacheBytes > 0).
	// lastGen tracks the newest store generation each replica has echoed
	// in a successful reply; cache keys embed it, so updating the map is
	// the whole invalidation.
	rcache   *qcache.Cache
	cacheTTL time.Duration
	genMu    sync.Mutex
	lastGen  map[string]int64

	// statsMu guards stats — the single consistent read path for every
	// distributed-evaluation counter. Client retries and breaker trips
	// arrive here through the OnRetry/onTrip hooks, so one lock
	// acquisition in Stats observes a mutually consistent snapshot
	// (previously each field was a separate atomic read against live
	// counters, and a snapshot could pair a retry with a trip it
	// preceded).
	statsMu sync.Mutex
	stats   CoordinatorStats
}

// bump applies one counter mutation under the stats mutex.
func (c *Coordinator) bump(f func(*CoordinatorStats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// NewCoordinator wraps a local directory with default client and
// breaker settings. reg maps namespace subtrees to server addresses;
// selfAddr identifies the local server in reg.
func NewCoordinator(dir *core.Directory, reg *Registry, selfAddr string) *Coordinator {
	return NewCoordinatorWith(dir, reg, selfAddr, CoordinatorConfig{})
}

// NewCoordinatorWith wraps a local directory with explicit timeouts,
// retry policy, and breaker thresholds.
func NewCoordinatorWith(dir *core.Directory, reg *Registry, selfAddr string, cfg CoordinatorConfig) *Coordinator {
	c := &Coordinator{
		dir:      dir,
		reg:      reg,
		selfAddr: selfAddr,
	}
	cfg.Client.OnRetry = func() { c.bump(func(s *CoordinatorStats) { s.Retries++ }) }
	c.client = NewClient(dir.Schema(), cfg.Client)
	c.health = newHealth(cfg.Breaker)
	c.health.onTrip = func() { c.bump(func(s *CoordinatorStats) { s.BreakerTrips++ }) }
	if cfg.CacheBytes > 0 {
		c.rcache = qcache.New(cfg.CacheBytes)
		c.cacheTTL = cfg.CacheTTL
		if c.cacheTTL <= 0 {
			c.cacheTTL = time.Second
		}
		c.lastGen = make(map[string]int64)
	}
	return c
}

// Close releases the coordinator's pooled connections.
func (c *Coordinator) Close() error { return c.client.Close() }

// Stats snapshots the coordinator's counters in one mutex acquisition:
// every field in the returned struct was observed at the same instant.
func (c *Coordinator) Stats() CoordinatorStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

// RegisterMetrics exposes the coordinator's counters (and, when the
// remote-result cache is enabled, the cache's) as pull-based gauges
// under the given name prefix, e.g. "dirkit_coord".
func (c *Coordinator) RegisterMetrics(reg *obs.Registry, prefix string) {
	gauge := func(name, help string, f func(*CoordinatorStats) int64) {
		reg.GaugeFunc(prefix+name, help, func() int64 {
			c.statsMu.Lock()
			defer c.statsMu.Unlock()
			return f(&c.stats)
		})
	}
	gauge("_remote_atomics", "atomic sub-queries shipped to other servers", func(s *CoordinatorStats) int64 { return s.RemoteAtomics })
	gauge("_local_atomics", "delegated atomics that resolved locally", func(s *CoordinatorStats) int64 { return s.LocalAtomics })
	gauge("_retries", "transport retries performed by the pooled client", func(s *CoordinatorStats) int64 { return s.Retries })
	gauge("_failovers", "atomics that fell over to a later replica", func(s *CoordinatorStats) int64 { return s.Failovers })
	gauge("_breaker_trips", "circuit breakers tripped open", func(s *CoordinatorStats) int64 { return s.BreakerTrips })
	gauge("_breaker_skips", "replicas skipped on an open breaker", func(s *CoordinatorStats) int64 { return s.BreakerSkips })
	gauge("_cache_hits", "remote atomics answered from the result cache", func(s *CoordinatorStats) int64 { return s.CacheHits })
	gauge("_cache_masked", "unreachable zones masked by a cached answer", func(s *CoordinatorStats) int64 { return s.CacheMasked })
	if c.rcache != nil {
		c.rcache.RegisterMetrics(reg, prefix+"_rcache")
	}
}

// CacheStats snapshots the remote-result cache's counters (the zero
// Stats when the cache is disabled).
func (c *Coordinator) CacheStats() qcache.Stats {
	if c.rcache == nil {
		return qcache.Stats{}
	}
	return c.rcache.Stats()
}

// RemoteAtomics reports how many atomic sub-queries were shipped to
// other servers since creation.
func (c *Coordinator) RemoteAtomics() int { return int(c.Stats().RemoteAtomics) }

// BreakerState reports addr's breaker state ("closed", "open",
// "half-open") for tools and tests.
func (c *Coordinator) BreakerState(addr string) string { return c.health.snapshot(addr) }

// resolveAtomic is one query's resolver: it answers q from st, the
// query's snapshot store, when this server owns q's base (or nobody
// does), and from a replica otherwise. Either way the list it returns
// lives on the query's arena.
func (c *Coordinator) resolveAtomic(ctx context.Context, st *store.Store, arena *pager.Arena, q *query.Atomic) (*plist.List, error) {
	tr := obs.FromContext(ctx) // nil (no-op) unless the caller traced
	addrs, ok := c.reg.LookupAll(q.Base)
	if !ok {
		return st.EvalArena(arena, q)
	}
	for _, a := range addrs {
		if a == c.selfAddr {
			c.bump(func(s *CoordinatorStats) { s.LocalAtomics++ })
			tr.Annotate("resolve", "local")
			return st.EvalArena(arena, q)
		}
	}
	c.bump(func(s *CoordinatorStats) { s.RemoteAtomics++ })

	var canon string
	if c.rcache != nil {
		canon = query.Canonical(q)
		// Fresh path: a recent generation-current answer from any
		// replica of the zone saves the round trip entirely.
		if entries, ok := c.cacheLookup(addrs, canon, true); ok {
			c.bump(func(s *CoordinatorStats) { s.CacheHits++ })
			tr.Annotate("resolve", "cache")
			return materialize(arena, entries)
		}
	}

	// Health-aware footnote-4 failover: replicas whose breaker is open
	// are skipped in favor of later ones; if every breaker is open the
	// full list is tried anyway (a last resort beats failing fast on
	// stale health). A candidate let through as a half-open probe is
	// remembered: the probe is an extra attempt spent re-testing a
	// failed address, and counts as a retry when it completes.
	type candidate struct {
		addr  string
		probe bool
	}
	candidates := make([]candidate, 0, len(addrs))
	for _, addr := range addrs {
		if ok, probe := c.health.allow(addr); ok {
			candidates = append(candidates, candidate{addr: addr, probe: probe})
		} else {
			c.bump(func(s *CoordinatorStats) { s.BreakerSkips++ })
		}
	}
	if len(candidates) == 0 {
		for _, addr := range addrs {
			candidates = append(candidates, candidate{addr: addr})
		}
	}

	retriesBefore := c.client.retries.Load()
	var lastErr error
	for i, cand := range candidates {
		addr := cand.addr
		if i > 0 {
			c.bump(func(s *CoordinatorStats) { s.Failovers++ })
		}
		entries, gen, rt, err := c.callRemote(ctx, tr, addr, q)
		if err == nil {
			c.health.success(addr)
			if c.rcache != nil {
				c.cacheStore(addr, gen, canon, entries)
			}
			c.finishRemote(tr, addr, i, retriesBefore, cand.probe, rt)
			return materialize(arena, entries)
		}
		if errors.Is(err, ErrRemote) {
			// The server answered with an error: it is healthy, and
			// failing over will not change the outcome.
			c.health.success(addr)
			c.finishRemote(tr, addr, i, retriesBefore, cand.probe, rt)
			return nil, err
		}
		c.health.failure(addr)
		lastErr = err
		if cerr := ctxExpired(ctx); cerr != nil {
			return nil, fmt.Errorf("dirserver: resolving %q: %w (last transport error: %v)", q.Base, cerr, err)
		}
	}
	// The whole zone is unreachable. A cached answer whose generation is
	// still current as far as this coordinator knows masks the outage —
	// staleness is bounded by the generation protocol, not wall clock.
	if c.rcache != nil {
		if entries, ok := c.cacheLookup(addrs, canon, false); ok {
			c.bump(func(s *CoordinatorStats) { s.CacheMasked++ })
			tr.Annotate("resolve", "cache-stale")
			return materialize(arena, entries)
		}
	}
	return nil, fmt.Errorf("%w: all servers for %q unreachable: %v", ErrUnavailable, q.Base, lastErr)
}

// callRemote ships one atomic to addr. With a tracer on the context
// the exchange carries trace ID, issuing span, and deadline budget on
// the wire and brings back the server's span subtree; without one it
// is a plain CallWithGen and the RemoteTrace is nil.
func (c *Coordinator) callRemote(ctx context.Context, tr *obs.Tracer, addr string, q *query.Atomic) ([]*model.Entry, int64, *RemoteTrace, error) {
	if tr == nil {
		entries, gen, err := c.client.CallWithGen(ctx, addr, "atomic", q.String())
		return entries, gen, nil, err
	}
	return c.client.CallTraced(ctx, addr, "atomic", q.String(), tr.TraceID(), tr.CurrentID())
}

// finishRemote settles the accounting for a completed remote exchange
// (successful or healthy-ErrRemote): the half-open probe, if this was
// one, is counted as a retry in the coordinator stats AND in the span
// annotation — the two must never disagree — then the span is tagged
// with replica/failover/retries and the wire/serve/queue time split,
// and the server's reported subtree is grafted under the current span.
func (c *Coordinator) finishRemote(tr *obs.Tracer, addr string, failover int, retriesBefore int64, probe bool, rt *RemoteTrace) {
	var probeExtra int64
	if probe {
		c.bump(func(s *CoordinatorStats) { s.Retries++ })
		probeExtra = 1
	}
	if tr == nil {
		return
	}
	tr.Annotate("replica", addr)
	if failover > 0 {
		tr.Annotate("failover", strconv.Itoa(failover))
	}
	if d := c.client.retries.Load() - retriesBefore + probeExtra; d > 0 {
		tr.Annotate("retries", strconv.FormatInt(d, 10))
	}
	if rt == nil {
		return
	}
	tr.Annotate("wire_us", strconv.FormatInt(rt.Wire.Microseconds(), 10))
	tr.Annotate("serve_us", strconv.FormatInt(rt.Serve.Microseconds(), 10))
	tr.Annotate("queue_us", strconv.FormatInt(rt.Queue.Microseconds(), 10))
	if rt.Span != nil {
		if rt.Span.Host == "" {
			rt.Span.Host = addr
		}
		tr.Attach(rt.Span)
	}
}

// cachedAnswer is one remembered remote reply: the decoded entries and
// when they were stored (for the TTL-bounded fresh path).
type cachedAnswer struct {
	entries []*model.Entry
	stored  time.Time
}

func remoteCacheKey(addr string, gen int64, canon string) string {
	return fmt.Sprintf("%s|g%d|%s", addr, gen, canon)
}

// cacheLookup searches the zone's replicas for a cached answer to canon
// at each replica's last observed generation. freshOnly restricts to
// answers younger than the TTL (the round-trip-saving path); without it
// any generation-current answer qualifies (the outage-masking path).
func (c *Coordinator) cacheLookup(addrs []string, canon string, freshOnly bool) ([]*model.Entry, bool) {
	for _, addr := range addrs {
		c.genMu.Lock()
		gen, ok := c.lastGen[addr]
		c.genMu.Unlock()
		if !ok {
			continue
		}
		v, ok := c.rcache.Get(remoteCacheKey(addr, gen, canon))
		if !ok {
			continue
		}
		ans := v.(*cachedAnswer)
		if freshOnly && time.Since(ans.stored) > c.cacheTTL {
			continue
		}
		return ans.entries, true
	}
	return nil, false
}

// cacheStore remembers a successful reply and advances the replica's
// observed generation; if gen moved, every answer cached under the old
// generation stops matching immediately and ages out of the LRU.
func (c *Coordinator) cacheStore(addr string, gen int64, canon string, entries []*model.Entry) {
	c.genMu.Lock()
	c.lastGen[addr] = gen
	c.genMu.Unlock()
	c.rcache.Put(remoteCacheKey(addr, gen, canon), &cachedAnswer{entries: entries, stored: time.Now()}, entriesCost(entries))
}

// entriesCost approximates an answer's resident bytes by its LDIF size
// plus a fixed per-answer overhead.
func entriesCost(entries []*model.Entry) int64 {
	n := int64(64)
	for _, e := range entries {
		n += int64(len(ldif.MarshalEntry(e)))
	}
	return n
}

// materialize writes remote results to the query's scratch disk for the
// pipeline. Results arrive in reverse-DN order (every server's
// evaluation preserves it).
func materialize(arena *pager.Arena, entries []*model.Entry) (*plist.List, error) {
	w := plist.NewWriter(arena.Scratch())
	for _, e := range entries {
		if err := w.Append(plist.FromEntry(e)); err != nil {
			return nil, err
		}
	}
	return w.Close()
}

// Search evaluates a query string under ctx, distributing atomics as
// needed. The context's deadline bounds the whole evaluation,
// including every remote hop.
func (c *Coordinator) Search(ctx context.Context, text string) ([]*model.Entry, error) {
	out, _, err := c.search(ctx, text, false)
	return out, err
}

// SearchTraced is Search under a fresh 128-bit trace ID: every
// operator records a span, remote atomics propagate the trace context
// over the wire and graft the servers' reported subtrees back in, and
// the merged tree is returned beside the entries. On evaluation error
// the partial tree recorded so far is still returned, so a lost
// replica reply leaves a well-formed (if truncated) trace. The span
// tree's I/O deltas window the query's private arena, so they are
// exact however many queries run at once.
func (c *Coordinator) SearchTraced(ctx context.Context, text string) ([]*model.Entry, *obs.Span, error) {
	return c.search(ctx, text, true)
}

// search is the one body behind Search and SearchTraced: one snapshot,
// one arena, one session carrying this query's resolver.
func (c *Coordinator) search(ctx context.Context, text string, traced bool) (out []*model.Entry, root *obs.Span, err error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	eng := c.dir.Engine()
	st := eng.Store()
	if err := query.Validate(st.Schema(), q); err != nil {
		return nil, nil, err
	}
	arena := pager.NewArena(st.Disk())
	sess := eng.Session(arena)
	sess.SetResolver(func(ctx context.Context, a *query.Atomic) (*plist.List, error) {
		return c.resolveAtomic(ctx, st, arena, a)
	})
	if traced {
		tr := obs.NewTracer(arena)
		tr.SetTraceID(obs.NewTraceID())
		ctx = obs.WithTracer(ctx, tr)
		defer func() { root = tr.Root() }()
	}
	l, err := sess.EvalContext(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	recs, err := plist.Drain(l)
	if err != nil {
		return nil, nil, err
	}
	out = make([]*model.Entry, len(recs))
	for i, r := range recs {
		out[i] = r.Entry
	}
	return out, nil, l.Free()
}
