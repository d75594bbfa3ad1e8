package dirserver

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/plist"
)

// Client errors.
var (
	// ErrRemote marks terminal answers: the server was reached and
	// replied with a query error. Retrying or failing over cannot
	// change the outcome.
	ErrRemote = errors.New("dirserver: remote error")
	// ErrUnavailable marks transport failure after the retry budget is
	// spent: dial refused, request timed out, connection reset, or the
	// reply was garbled on the wire (ErrGarbled).
	ErrUnavailable = errors.New("dirserver: server unavailable")
	// ErrClientClosed is returned by calls on a closed Client.
	ErrClientClosed = errors.New("dirserver: client closed")
)

// ClientConfig tunes the pooled client's timeouts and retry policy.
// The zero value gets production-ish defaults; tests and chaos
// harnesses shrink them.
type ClientConfig struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response round trip on the
	// wire, enforced with SetDeadline (default 10s), and the server's
	// evaluation of it through the request's budget. A context with an
	// earlier deadline tightens both.
	RequestTimeout time.Duration
	// MaxRetries is the number of extra attempts after the first, for
	// transient transport errors only (default 2; negative disables
	// retries). ErrRemote answers are never retried.
	MaxRetries int
	// BackoffBase is the first retry's backoff (default 25ms); each
	// further retry doubles it, capped at BackoffMax (default 1s), with
	// jitter so synchronized clients do not stampede a recovering
	// server.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxIdlePerAddr caps pooled idle connections per address
	// (default 4; negative disables pooling).
	MaxIdlePerAddr int
	// OnRetry, when non-nil, is invoked once per backoff retry, before
	// the backoff sleep. The Coordinator uses it to fold client retries
	// into its single mutex-guarded stats snapshot.
	OnRetry func()
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = time.Second
	}
	if c.MaxIdlePerAddr == 0 {
		c.MaxIdlePerAddr = 4
	}
	return c
}

// ClientStats is a point-in-time snapshot of a Client's counters.
type ClientStats struct {
	Calls   int64 // Call invocations
	Dials   int64 // fresh TCP connections established
	Reuses  int64 // calls served from a pooled connection
	Retries int64 // backoff retries after transient failures
}

// Client is a pooled directory-protocol client: connections are reused
// per address (one TCP stream carries any number of exchanges, each a
// JSON request line answered by one reply frame), every round trip runs
// under a deadline, and transient transport failures — a garbled reply
// among them — are retried with capped exponential backoff plus jitter.
// It is safe for concurrent use.
type Client struct {
	schema *model.Schema
	cfg    ClientConfig

	calls, dials, reuses, retries atomic.Int64

	mu     sync.Mutex
	idle   map[string][]*poolConn
	closed bool
	rng    *rand.Rand // jitter source; guarded by mu
}

// poolConn is one pooled connection. The reader persists across calls:
// the stream carries exactly one reply frame per request, so it never
// buffers past the reply it is reading. buf holds the last reply frame
// and is reused for the next one, up to keepReplyBytes.
type poolConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

// NewClient creates a pooled client decoding entries against schema.
func NewClient(schema *model.Schema, cfg ClientConfig) *Client {
	return &Client{
		schema: schema,
		cfg:    cfg.withDefaults(),
		idle:   make(map[string][]*poolConn),
		rng:    rand.New(rand.NewSource(1)),
	}
}

// Stats snapshots the client's counters.
func (cl *Client) Stats() ClientStats {
	return ClientStats{
		Calls:   cl.calls.Load(),
		Dials:   cl.dials.Load(),
		Reuses:  cl.reuses.Load(),
		Retries: cl.retries.Load(),
	}
}

// Close drops all pooled connections. In-flight calls finish; new
// calls fail with ErrClientClosed.
func (cl *Client) Close() error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.closed = true
	for _, conns := range cl.idle {
		for _, pc := range conns {
			_ = pc.c.Close()
		}
	}
	cl.idle = make(map[string][]*poolConn)
	return nil
}

// Call sends one request to addr and decodes the sorted entries,
// retrying transient transport failures. A reused pooled connection
// that turns out to have died idle gets one free redial that does not
// consume the retry budget.
func (cl *Client) Call(ctx context.Context, addr, kind, queryText string) ([]*model.Entry, error) {
	entries, _, err := cl.CallWithGen(ctx, addr, kind, queryText)
	return entries, err
}

// CallWithGen is Call plus the server's store generation echoed in the
// reply: a write's acknowledgment names the generation that includes
// it.
func (cl *Client) CallWithGen(ctx context.Context, addr, kind, queryText string) ([]*model.Entry, int64, error) {
	rep, _, err := cl.do(ctx, addr, request{Kind: kind, Query: queryText}, false)
	return rep.entries, rep.Gen, err
}

// RemoteTrace describes one traced exchange: the server-side span
// subtree (root Host = serving address) and the round trip's time
// split — server evaluation, server-side queueing, and what remains,
// the wire (serialization + network + client decode). Wire/Serve/Queue
// cover the successful exchange only; retried attempts are not
// included.
type RemoteTrace struct {
	Span  *obs.Span
	Wire  time.Duration
	Serve time.Duration
	Queue time.Duration
}

// CallTraced is CallWithGen carrying trace context on the wire:
// traceID and the issuing span's ID ride the request, and the reply's
// span subtree plus wire/serve/queue time split come back in
// RemoteTrace. RemoteTrace is non-nil whenever the server replied (even
// with a query error, whose partial span tree keeps the merged trace
// well-formed); it is nil on transport failure.
func (cl *Client) CallTraced(ctx context.Context, addr, kind, queryText, traceID string, parentSpan uint64) ([]*model.Entry, int64, *RemoteTrace, error) {
	rep, rtt, err := cl.do(ctx, addr, request{Kind: kind, Query: queryText, Trace: traceID, Span: parentSpan}, false)
	if err != nil && !errors.Is(err, ErrRemote) {
		return nil, 0, nil, err
	}
	return rep.entries, rep.Gen, remoteTrace(rep.response, rtt), err
}

// callRecords is CallTraced for the Coordinator's hops: the reply's
// records come back checked but not materialized, over their own copy
// of the frame's bytes, for appending to a list as they are. An empty
// traceID sends an untraced request, whose RemoteTrace carries no span
// tree.
func (cl *Client) callRecords(ctx context.Context, addr, kind, queryText, traceID string, parentSpan uint64) ([]*plist.Record, *RemoteTrace, error) {
	rep, rtt, err := cl.do(ctx, addr, request{Kind: kind, Query: queryText, Trace: traceID, Span: parentSpan}, true)
	if err != nil && !errors.Is(err, ErrRemote) {
		return nil, nil, err
	}
	return rep.recs, remoteTrace(rep.response, rtt), err
}

// remoteTrace splits a reply's round trip rtt by the server-side times
// its header reports.
func remoteTrace(res response, rtt time.Duration) *RemoteTrace {
	rt := &RemoteTrace{
		Span:  res.Trace,
		Serve: time.Duration(res.ServeUS) * time.Microsecond,
		Queue: time.Duration(res.QueueUS) * time.Microsecond,
	}
	if rt.Wire = rtt - rt.Serve - rt.Queue; rt.Wire < 0 {
		rt.Wire = 0
	}
	return rt
}

// do runs the retry loop for one request, returning the decoded reply
// (its header meaningful whenever the server replied, ErrRemote
// included; its records or its entries as records asks) and how long
// the successful exchange took on this client's clock. Every attempt
// forwards the smaller of what is left of the context's deadline and
// RequestTimeout as the request's budget, so the server stops
// evaluating when this client would discard the answer.
func (cl *Client) do(ctx context.Context, addr string, req request, records bool) (reply, time.Duration, error) {
	cl.calls.Add(1)
	var lastErr error
	freeRedial := true
	for attempt := 0; ; {
		if err := ctx.Err(); err != nil {
			return reply{}, 0, err
		}
		budget := cl.cfg.RequestTimeout
		if dl, ok := ctx.Deadline(); ok {
			budget = min(budget, time.Until(dl))
		}
		req.BudgetMS = max(budget.Milliseconds(), 1)
		b, err := json.Marshal(req)
		if err != nil {
			return reply{}, 0, err
		}
		pc, reused, err := cl.get(ctx, addr)
		if err == nil {
			var rep reply
			start := time.Now()
			rep, err = cl.roundTrip(ctx, pc, b, records)
			rtt := time.Since(start)
			if err == nil {
				cl.put(addr, pc)
				return rep, rtt, nil
			}
			if errors.Is(err, ErrRemote) {
				// A protocol-clean error reply: the stream is still
				// framed correctly, so the connection stays pooled.
				cl.put(addr, pc)
				return rep, rtt, err
			}
			_ = pc.c.Close()
			if reused && freeRedial {
				// The pooled connection was stale (closed server-side
				// while idle); redial immediately.
				freeRedial = false
				continue
			}
		}
		if errors.Is(err, ErrClientClosed) || ctxExpired(ctx) != nil {
			if cerr := ctxExpired(ctx); cerr != nil {
				return reply{}, 0, fmt.Errorf("dirserver: %s: %w (last transport error: %v)", addr, cerr, err)
			}
			return reply{}, 0, err
		}
		lastErr = err
		attempt++
		if attempt > cl.cfg.MaxRetries {
			break
		}
		cl.retries.Add(1)
		if cl.cfg.OnRetry != nil {
			cl.cfg.OnRetry()
		}
		if err := sleepCtx(ctx, cl.backoff(attempt)); err != nil {
			return reply{}, 0, fmt.Errorf("dirserver: %s: %w (last transport error: %v)", addr, err, lastErr)
		}
	}
	return reply{}, 0, fmt.Errorf("%w: %s after %d attempts: %w", ErrUnavailable, addr, cl.cfg.MaxRetries+1, lastErr)
}

// roundTrip runs one request/response exchange on pc under the
// configured deadline (tightened by the context's, if earlier),
// returning the decoded reply (readReply).
func (cl *Client) roundTrip(ctx context.Context, pc *poolConn, req []byte, records bool) (reply, error) {
	dl := time.Now().Add(cl.cfg.RequestTimeout)
	if cdl, ok := ctx.Deadline(); ok && cdl.Before(dl) {
		dl = cdl
	}
	if err := pc.c.SetDeadline(dl); err != nil {
		return reply{}, err
	}
	// Cancellation mid-read: expire the deadline immediately. A context
	// that can never be cancelled needs no hook.
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() { _ = pc.c.SetDeadline(time.Now()) })
		defer stop()
	}

	if _, err := pc.c.Write(append(req, '\n')); err != nil {
		return reply{}, err
	}
	rep, buf, err := readReply(pc.br, pc.buf, cl.schema, records)
	if pc.buf = buf; cap(buf) > keepReplyBytes {
		pc.buf = nil
	}
	if err != nil {
		return reply{}, err
	}
	if err := pc.c.SetDeadline(time.Time{}); err != nil {
		return rep, err
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("%w: %s", ErrRemote, rep.Err)
	}
	return rep, nil
}

// get pops a pooled connection for addr or dials a fresh one.
func (cl *Client) get(ctx context.Context, addr string) (pc *poolConn, reused bool, err error) {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if l := cl.idle[addr]; len(l) > 0 {
		pc = l[len(l)-1]
		cl.idle[addr] = l[:len(l)-1]
		cl.mu.Unlock()
		cl.reuses.Add(1)
		return pc, true, nil
	}
	cl.mu.Unlock()
	d := net.Dialer{Timeout: cl.cfg.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, false, err
	}
	cl.dials.Add(1)
	return &poolConn{c: conn, br: bufio.NewReader(conn)}, false, nil
}

// put returns a healthy connection to the pool.
func (cl *Client) put(addr string, pc *poolConn) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if cl.closed || cl.cfg.MaxIdlePerAddr < 0 || len(cl.idle[addr]) >= cl.cfg.MaxIdlePerAddr {
		_ = pc.c.Close()
		return
	}
	cl.idle[addr] = append(cl.idle[addr], pc)
}

// backoff computes the sleep before retry n (1-based): exponential in
// n, capped, with jitter in [1/2, 1) of the nominal value.
func (cl *Client) backoff(n int) time.Duration {
	d := cl.cfg.BackoffBase << (n - 1)
	if d > cl.cfg.BackoffMax || d <= 0 {
		d = cl.cfg.BackoffMax
	}
	cl.mu.Lock()
	f := 0.5 + 0.5*cl.rng.Float64()
	cl.mu.Unlock()
	return time.Duration(float64(d) * f)
}

// ctxExpired reports whether ctx is done — or, when it carries a
// deadline, whether that deadline has passed on the wall clock even if
// the context's own timer has not fired yet. A connection deadline
// derived from the context expires at the same instant as the context,
// and the resulting i/o timeout routinely races ahead of ctx.Err()
// flipping non-nil; callers deciding "was this a deadline failure?"
// must not lose that race.
func ctxExpired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Call sends one request to a server and decodes the entries: the
// single-shot, unpooled form (one attempt, no retries) used by tools
// and tests. The context carries the caller's deadline.
func Call(ctx context.Context, addr string, schema *model.Schema, kind, queryText string) ([]*model.Entry, error) {
	cl := NewClient(schema, ClientConfig{MaxRetries: -1, MaxIdlePerAddr: -1})
	defer cl.Close()
	return cl.Call(ctx, addr, kind, queryText)
}
