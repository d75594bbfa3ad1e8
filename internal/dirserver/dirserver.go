// Package dirserver implements the distributed side of "Querying
// Network Directories": DNS-style delegation of the hierarchical
// namespace to directory servers (Section 3.3), a query protocol over
// TCP, and the distributed query evaluation strategy of Section 8.3 —
// each atomic sub-query whose base DN is managed by another server is
// shipped to that server, and to every delegated sub-zone its scope
// reaches; the sorted result lists come back to the queried server,
// which merges an atomic's parts and runs the operator pipeline
// locally.
//
// A request is one JSON line; its reply is one checksummed binary
// frame carrying the result entries as the engine's own list records
// (frame.go), which a Coordinator appends to its query's arena as they
// arrive.
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
	"bytes"
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
	root  model.DN
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
	r.zones = append(r.zones, zone{key: domain.Key(), root: domain, addrs: addrs})
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
	owner, _ := r.Route(dn, query.ScopeBase)
	return owner, owner != nil
}

// Route returns the zones an atomic query over (base, scope) reaches.
// owner lists the servers of the zone owning base (nil when no zone
// does). inside holds every registered zone whose root lies in the
// scope without being base's own zone — under base for sub, a child of
// base for one, none for base — each as an atomic over its own part of
// the scope: its root with scope sub, or base under a one parent. A
// server answers from its own store, which holds none of a delegated
// sub-zone's entries, so a complete answer asks every one of them
// (LDAP's subordinate referrals, followed by the coordinator).
func (r *Registry) Route(base model.DN, scope query.Scope) (owner []string, inside []Delegation) {
	key := base.Key()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, z := range r.zones { // sorted deepest-first
		switch {
		case owner == nil && strings.HasPrefix(key, z.key):
			owner = z.addrs
		case scope == query.ScopeSub && model.KeyIsAncestor(key, z.key):
			inside = append(inside, Delegation{Root: z.root, Scope: query.ScopeSub, Addrs: z.addrs})
		case scope == query.ScopeOne && model.KeyIsParent(key, z.key):
			inside = append(inside, Delegation{Root: z.root, Scope: query.ScopeBase, Addrs: z.addrs})
		}
	}
	return owner, inside
}

// Delegation is one sub-zone an atomic's scope reaches (Registry.Route):
// the zone's servers, and the scope to ask them for at its root.
type Delegation struct {
	Root  model.DN
	Scope query.Scope
	Addrs []string // primary first, then secondaries
}

// Zones lists the registered delegations (for tools).
func (r *Registry) Zones() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.zones))
	for i, z := range r.zones {
		out[i] = fmt.Sprintf("%s -> %s", z.root, strings.Join(z.addrs, ", "))
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
// request (the remote subtree's parent). BudgetMS, sent by every
// Client call, traced or not, is the caller's remaining budget (the
// smaller of its context's deadline and its RequestTimeout), so a
// server stops evaluating when the caller would discard the answer
// anyway.
type request struct {
	Kind  string `json:"kind"`
	Query string `json:"query"`

	Trace    string `json:"trace,omitempty"`
	Span     uint64 `json:"span,omitempty"`
	BudgetMS int64  `json:"budget_ms,omitempty"`
}

// response is the header of one reply frame (frame.go): the serving
// directory's store generation — a write's reply names the generation
// that includes it — an error, the server-side times and, for a traced
// request, the span tree. The frame carries the sorted result entries
// after it as plist records. Gen is scoped to one server process; a
// replica that restarts (fresh Directory) counts generations anew.
type response struct {
	Gen int64
	Err string

	// Trace is the server-side span subtree of this evaluation, returned
	// only when the request carried a trace ID. Its root has Host set to
	// the serving address and ParentID to the request's Span, so the
	// client grafts it into its own tree and dirq -explain renders one
	// merged tree across every process the query touched.
	Trace *obs.Span
	// ServeUS and QueueUS split the server-side time (microseconds):
	// evaluation proper, and the lag between the request line arriving
	// and evaluation starting. The client derives wire time as its
	// round-trip elapsed minus both.
	ServeUS, QueueUS int64
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
	// (default 8). Each one is answered with an error reply first, so
	// a single bad line never silently kills a pooled connection.
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
	// complete per-operator record of each request. Tracing does not
	// change how a request's budget_ms applies: it bounds every
	// evaluation, traced or not, except a result-cache fill, which runs
	// detached because every concurrent request for the same query
	// waits on it.
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
	var out []byte // the connection's reply buffer, reused up to keepReplyBytes
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
				out, _ = appendReply(out, &response{Err: "bad request: " + err.Error()}, nil)
				if s.reply(conn, out) {
					s.drainLine(conn)
				}
			}
			return
		}
		// recv anchors the queue-time half of the server-side split: the
		// request line is in hand, evaluation has not started.
		recv := time.Now()
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var req request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			// One malformed line answers with an error but keeps the
			// (possibly pooled) connection alive; a stream of them
			// hangs up.
			bad++
			out, _ = appendReply(out, &response{Err: "bad request: " + err.Error()}, nil)
			if !s.reply(conn, out) || bad >= s.cfg.MaxBadRequests {
				return
			}
			continue
		}
		bad = 0
		out = s.serveOne(out, req, recv)
		if !s.reply(conn, out) {
			return
		}
		if cap(out) > keepReplyBytes {
			out = nil
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

// reply writes one reply frame with one Write under the write deadline;
// false means the connection is unusable.
func (s *Server) reply(conn net.Conn, frame []byte) bool {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
	_, err := conn.Write(frame)
	return err == nil
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

// serveOne answers one request and returns its reply frame, encoded
// over b's storage.
func (s *Server) serveOne(b []byte, req request, recv time.Time) []byte {
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
	var q query.Query
	switch req.Kind {
	case "add", "del":
		traced = false
		gen, err = s.applyWrite(req)
	case "atomic", "query", "ldap":
		if q, err = parseRequest(req); err == nil {
			ctx, cancel := budgetCtx(req)
			res, root, err = s.dir.SearchWith(ctx, core.Request{Query: q, Trace: traced})
			cancel()
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
		s.record(req, q, traced, traceID, gen, dur, io, 0, nil, err, root)
		out := response{Err: err.Error(), ServeUS: dur.Microseconds(), QueueUS: queue.Microseconds()}
		if req.Trace != "" {
			// A lost or failed evaluation still returns its partial span
			// subtree, so the merged tree stays well-formed.
			out.Trace = root
		}
		frame, _ := appendReply(b, &out, nil)
		return frame
	}
	if req.Kind == "add" || req.Kind == "del" {
		// A write acknowledgment: no entries, just the generation the
		// mutation produced (already durable if AfterUpdate says so).
		frame, _ := appendReply(b, &response{Gen: gen}, nil)
		return frame
	}
	// Echo the generation the evaluation actually ran against (carried
	// on the Result), not the directory's current generation: an Update
	// swapping the store mid-evaluation must not stamp old entries with
	// the new generation, or remote caches would pin stale answers
	// under a fresh token.
	out := response{Gen: res.Gen, ServeUS: dur.Microseconds(), QueueUS: queue.Microseconds()}
	if req.Trace != "" {
		out.Trace = root
	}
	frame, recs := appendReply(b, &out, res.Entries)
	s.record(req, q, traced, traceID, gen, dur, io, len(res.Entries), recs, nil, root)
	return frame
}

// parseRequest parses a read request's query by its kind: "ldap" in the
// LDAP baseline syntax, "query" and "atomic" as L0–L3, where "atomic"
// must be a single atomic query.
func parseRequest(req request) (query.Query, error) {
	if req.Kind == "ldap" {
		q, err := query.ParseLDAP(req.Query)
		if err != nil {
			return nil, err // not a nil *query.LDAP in a non-nil interface
		}
		return q, nil
	}
	q, err := query.Parse(req.Query)
	if err != nil {
		return nil, err
	}
	if _, ok := q.(*query.Atomic); !ok && req.Kind == "atomic" {
		return nil, fmt.Errorf("dirserver: %q is not atomic", req.Query)
	}
	return q, nil
}

// budgetCtx derives the evaluation context from the request's remaining
// deadline budget, so a server abandons work the client would discard
// anyway (core.Directory.SearchWith: every evaluation but a detached
// cache fill honours it). The returned cancel must be called.
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
// q is the parsed query, nil when the request did not parse; the reply
// carries entries entries, whose record bytes recs the hash covers.
func (s *Server) record(req request, q query.Query, traced bool, traceID string, gen int64, dur time.Duration, io int64, entries int, recs []byte, err error, root *obs.Span) {
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
		Root:    root,
	}
	if err == nil {
		hash := fnv.New64a()
		_, _ = hash.Write(recs)
		rec.Hash = hash.Sum64()
	}
	// Normalize the display text through a parse/print round trip
	// (case folding, whitespace) — but not query.Canonical, whose
	// reverse-DN keys embed NUL separators and are unreadable.
	if q != nil {
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
}

// Coordinator evaluates full query trees the Section 8.3 way: atomic
// sub-queries owned by other servers are shipped to them, and an
// atomic whose scope reaches delegated sub-zones is asked in each
// (resolveAtomic); their sorted result records are appended to the
// query's arena as they arrive and fed into this server's operator
// pipeline. Remote calls run under the caller's context through the
// pooled retrying Client, and per-address breakers steer around
// unhealthy replicas.
//
// Each Search is a core.Directory.SearchWith call whose Request carries
// this coordinator's resolver: it loads the directory's current
// snapshot once and runs on a session over a fresh per-query arena,
// with the resolver bound to that session alone, and without the
// planner or the directory's result cache. Local atomics, remote
// answers, intermediates and results all land on the arena's scratch
// disk; the directory's store disk is only read. So Search takes no
// lock, any number run concurrently with exact per-query I/O, a
// coordinator follows the directory's updates, and plain dir.Search
// calls never see the resolver. Within one query the
// remote atomics resolve one after another, in operand order; the
// pooled client, breakers and stats carry their own synchronization
// because concurrent Searches share them. Remote answers are not
// cached: a zone whose replicas are all unreachable fails the query
// with ErrUnavailable.
type Coordinator struct {
	dir      *core.Directory
	reg      *Registry
	selfAddr string
	client   *Client
	health   *health

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

// RegisterMetrics exposes the coordinator's counters as pull-based
// gauges under the given name prefix, e.g. "dirkit_coord".
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
}

// RemoteAtomics reports how many atomic sub-queries were shipped to
// other servers since creation.
func (c *Coordinator) RemoteAtomics() int { return int(c.Stats().RemoteAtomics) }

// BreakerState reports addr's breaker state ("closed", "open",
// "half-open") for tools and tests.
func (c *Coordinator) BreakerState(addr string) string { return c.health.snapshot(addr) }

// resolveAtomic is one query's resolver. It answers q in every zone
// q's scope reaches (Registry.Route): the zone owning q's base, and each
// delegated sub-zone inside the scope, whose entries no other server
// holds. An atomic within one zone resolves as that zone's answer
// alone; across zones, each part is traced as a "zone" span and the
// sorted parts are merged (equal keys combining) into one list. Every
// list lives on the query's arena, and a zone with no reachable replica
// fails the query with ErrUnavailable.
func (c *Coordinator) resolveAtomic(ctx context.Context, st *store.Store, arena *pager.Arena, q *query.Atomic) (*plist.List, error) {
	owner, inside := c.reg.Route(q.Base, q.Scope)
	if len(inside) == 0 {
		return c.resolveIn(ctx, st, arena, q, owner)
	}
	tr := obs.FromContext(ctx)
	parts := make([]*plist.List, 0, 1+len(inside))
	defer func() {
		for _, l := range parts {
			_ = l.Free()
		}
	}()
	rds := make([]plist.RecordReader, 0, 1+len(inside))
	for _, d := range append([]Delegation{{Root: q.Base, Scope: q.Scope, Addrs: owner}}, inside...) {
		sp := tr.Start("zone", d.Root.String())
		l, err := c.resolveIn(ctx, st, arena, &query.Atomic{Base: d.Root, Scope: d.Scope, Filter: q.Filter}, d.Addrs)
		if err != nil {
			tr.Fail(sp, err)
			return nil, err
		}
		tr.End(sp, l.Count())
		parts, rds = append(parts, l), append(rds, l.Reader())
	}
	return plist.Materialize(arena.Scratch(), plist.NewMergeUntagged(rds...))
}

// resolveIn answers q in one zone, served by addrs (nil: a namespace no
// zone owns): from st, the query's snapshot store, when this server is
// one of them or there are none, and from a replica otherwise.
func (c *Coordinator) resolveIn(ctx context.Context, st *store.Store, arena *pager.Arena, q *query.Atomic, addrs []string) (*plist.List, error) {
	tr := obs.FromContext(ctx) // nil (no-op) unless the caller traced
	if addrs == nil {
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
		recs, rt, err := c.callRemote(ctx, tr, addr, q)
		if err == nil {
			c.health.success(addr)
			c.finishRemote(tr, addr, i, retriesBefore, cand.probe, rt)
			// The records arrive checked and in key order (every server's
			// evaluation preserves it) and go to the arena as they are.
			return plist.Build(arena.Scratch(), recs)
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
	return nil, fmt.Errorf("%w: all servers for %q unreachable: %v", ErrUnavailable, q.Base, lastErr)
}

// callRemote ships one atomic to addr under ctx's deadline budget and
// returns the reply's records. With a tracer on the context the
// exchange also carries the trace ID and issuing span on the wire and
// brings back the server's span subtree; without one the request is
// untraced and the RemoteTrace is nil.
func (c *Coordinator) callRemote(ctx context.Context, tr *obs.Tracer, addr string, q *query.Atomic) ([]*plist.Record, *RemoteTrace, error) {
	if tr == nil {
		recs, _, err := c.client.callRecords(ctx, addr, "atomic", q.String(), "", 0)
		return recs, nil, err
	}
	if tr.TraceID() == "" {
		// The query's first remote hop assigns its trace ID; the tracer
		// is the query's own, so every later hop carries the same one.
		tr.SetTraceID(obs.NewTraceID())
	}
	return c.client.callRecords(ctx, addr, "atomic", q.String(), tr.TraceID(), tr.CurrentID())
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

// search parses text and hands it to the directory's one search body
// with this coordinator's resolver.
func (c *Coordinator) search(ctx context.Context, text string, trace bool) ([]*model.Entry, *obs.Span, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	res, root, err := c.dir.SearchWith(ctx, core.Request{Query: q, Trace: trace, Resolve: c.resolveAtomic})
	if err != nil {
		return nil, root, err
	}
	return res.Entries, root, nil
}
