// Package obs is the observability substrate of the repository: a
// lightweight per-operator tracer, a dependency-free metrics registry
// (counters, gauges, log₂-bucketed histograms), Prometheus-text and
// JSON exposition, a structured slow-query log, and an HTTP admin
// listener serving /metrics, /statusz and /debug/pprof.
//
// The paper's whole argument is an I/O cost model: Sections 8–9 prove
// per-operator page-I/O bounds and validate them experimentally. The
// tracer makes those bounds observable on live queries — every plan
// operator yields a span carrying its wall time, input/output list
// cardinalities, and the exact pager.Stats delta it performed — so a
// query's span tree is the paper's cost tables, live. The metrics
// registry aggregates what the Coordinator, circuit breakers, query
// caches, and servers previously counted ad hoc; see DESIGN.md §8.
//
// A Tracer is single-goroutine, and a span's I/O delta attributes
// pages to its operator because a query's operators run one at a time
// on its own arena (the ownership rule in pager.Stats). Traced and
// untraced evaluation run the same plan the same way, so EXPLAIN
// reports the costs of the evaluation that serving performs (DESIGN.md
// §9).
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/pager"
)

// NewTraceID returns a fresh 128-bit trace identifier as 32 lowercase
// hex characters. Every query is assigned one at its entry point (dirq,
// a dirserve handler, or a Coordinator) and the ID rides the dirserver
// wire protocol so all spans of one distributed evaluation — across
// every process it touches — share it.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to the
		// clock rather than refusing to trace.
		now := time.Now().UnixNano()
		for i := 0; i < 8; i++ {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// Tag is one key=value annotation on a span (replica address, retry
// count, cache outcome, ...). An ordered slice, not a map: spans carry
// few tags and render deterministically.
type Tag struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span records the evaluation of one plan operator. IO and Dur cover
// the whole subtree (children included); Self* subtract the children,
// so summing Self I/O over a tree reproduces the root's total exactly —
// the conservation law the tracer tests assert against Arena.Stats().
type Span struct {
	Op       string        `json:"op"`               // operator mnemonic: atomic, ldap, &, |, -, p, c, a, d, ac, dc, g, vd, dv
	Detail   string        `json:"detail,omitempty"` // e.g. the atomic query text
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur"`
	In       []int64       `json:"in,omitempty"` // input list cardinalities
	Out      int64         `json:"out"`          // output list cardinality
	IO       pager.Stats   `json:"io"`           // page I/O of the whole span, children included
	Err      string        `json:"err,omitempty"`
	Tags     []Tag         `json:"tags,omitempty"`
	Children []*Span       `json:"children,omitempty"`

	// ID and ParentID link spans for wire propagation: IDs are unique
	// within one tracer (one process's view of one query), and a remote
	// subtree's root carries the ID of the client-side span that issued
	// the request as its ParentID — the {traceID, parentSpanID} pair of
	// the dirserver protocol.
	ID       uint64 `json:"id,omitempty"`
	ParentID uint64 `json:"parent,omitempty"`
	// Host marks the root of a subtree recorded in another process (the
	// serving replica's address). Page I/O below a Host boundary was
	// performed on that process's disk, not the local one — SelfIO,
	// TreeIO, and CheckConservation all treat Host != "" as a process
	// boundary.
	Host string `json:"host,omitempty"`

	startIO pager.Stats // disk counters at Start (tracer-internal)
}

// SetIn records the operator's input cardinalities (nil-safe).
func (s *Span) SetIn(in ...int64) {
	if s == nil {
		return
	}
	s.In = in
}

// Tag appends an annotation (nil-safe).
func (s *Span) Tag(key, value string) {
	if s == nil {
		return
	}
	s.Tags = append(s.Tags, Tag{Key: key, Value: value})
}

// TagValue returns the value of the first tag with the given key.
func (s *Span) TagValue(key string) (string, bool) {
	for _, t := range s.Tags {
		if t.Key == key {
			return t.Value, true
		}
	}
	return "", false
}

// SelfIO returns the span's own page I/O: its total minus its
// same-process children's totals. Summed over every span of one
// process's subtree this equals that subtree root's IO exactly (each
// page access is attributed to exactly one span). Children with Host
// set are remote subtrees whose I/O happened on another process's disk;
// they are excluded here and accounted by TreeIO.
func (s *Span) SelfIO() pager.Stats {
	io := s.IO
	for _, c := range s.Children {
		if c.Host == "" {
			io = io.Sub(c.IO)
		}
	}
	return io
}

// TreeIO returns the whole distributed evaluation's page I/O: the local
// subtree's total plus, recursively, every remote subtree's. This is
// the "total" side of the cross-process conservation law
// local + Σ remote = total (DESIGN.md §13).
func (s *Span) TreeIO() pager.Stats {
	io := s.IO
	var add func(*Span)
	add = func(sp *Span) {
		for _, c := range sp.Children {
			if c.Host != "" {
				io = io.Add(c.TreeIO())
			} else {
				add(c)
			}
		}
	}
	add(s)
	return io
}

// RemoteRoots returns the roots of every remote subtree directly
// reachable from s without crossing another process boundary — one per
// remote hop made by s's process.
func (s *Span) RemoteRoots() []*Span {
	var out []*Span
	var walk func(*Span)
	walk = func(sp *Span) {
		for _, c := range sp.Children {
			if c.Host != "" {
				out = append(out, c)
			} else {
				walk(c)
			}
		}
	}
	walk(s)
	return out
}

// CheckConservation verifies the merged span tree's I/O accounting,
// process by process. Within one process's subtree the per-span SelfIO
// deltas telescope to the subtree root's IO by construction, so the
// invariant that can actually break — and the one this checks — is that
// every SelfIO component is non-negative: same-process children never
// account more I/O than their parent observed (each page access is
// attributed to exactly one operator). The check recurses into every
// remote subtree, and verifies structural well-formedness along the
// way: a remote root's ParentID, when set, must name the span it hangs
// under. A nil error means TreeIO() = local pages + Σ remote-reported
// pages is an exact per-operator decomposition; tests that hold the
// physical disk counters additionally assert root IO == measured delta.
func (s *Span) CheckConservation() error {
	if s == nil {
		return fmt.Errorf("obs: nil span tree")
	}
	var walk func(*Span) error
	walk = func(sp *Span) error {
		if self := sp.SelfIO(); self.Reads < 0 || self.Writes < 0 || self.Allocs < 0 || self.Frees < 0 {
			return fmt.Errorf("obs: span %s %q self I/O went negative (%v): children account more than the parent observed",
				sp.Op, sp.Detail, self)
		}
		for _, c := range sp.Children {
			if c.Host != "" {
				if c.ParentID != 0 && sp.ID != 0 && c.ParentID != sp.ID {
					return fmt.Errorf("obs: remote subtree from %s has parent span %d, attached under span %d",
						c.Host, c.ParentID, sp.ID)
				}
				if err := c.CheckConservation(); err != nil {
					return err
				}
				continue
			}
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s)
}

// SelfDur returns the span's own wall time, children subtracted
// (clamped at zero: timers are not as exact as I/O counters).
func (s *Span) SelfDur() time.Duration {
	d := s.Dur
	for _, c := range s.Children {
		d -= c.Dur
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Walk visits the span and every descendant, parents first.
func (s *Span) Walk(fn func(*Span)) {
	if s == nil {
		return
	}
	fn(s)
	for _, c := range s.Children {
		c.Walk(fn)
	}
}

// Format renders the span tree as an indented table: one line per
// operator with cardinalities, self and total I/O, and wall time —
// the per-operator cost breakdown of the paper's Section 9 tables,
// measured on this one query.
func (s *Span) Format(w io.Writer) {
	fmt.Fprintln(w, "span tree (per operator: in -> out cardinalities, self/total page I/O, wall time):")
	s.format(w, 0)
	remotes := s.RemoteRoots()
	if len(remotes) == 0 {
		fmt.Fprintf(w, "total: %d page accesses (%s) in %s\n", s.IO.IO(), s.IO, fmtDur(s.Dur))
		return
	}
	var remote int64
	for _, r := range remotes {
		remote += r.TreeIO().IO()
	}
	total := s.TreeIO()
	fmt.Fprintf(w, "total: %d page accesses (local %d + remote %d across %d hops) in %s\n",
		total.IO(), s.IO.IO(), remote, len(remotes), fmtDur(s.Dur))
}

func (s *Span) format(w io.Writer, depth int) {
	indent := strings.Repeat("  ", depth)
	label := s.Op
	if s.Host != "" {
		label = "@" + s.Host + " " + label
	}
	if s.Detail != "" {
		label += " " + s.Detail
	}
	in := ""
	if len(s.In) > 0 {
		parts := make([]string, len(s.In))
		for i, n := range s.In {
			parts[i] = fmt.Sprint(n)
		}
		in = strings.Join(parts, ",") + " -> "
	}
	self := s.SelfIO()
	fmt.Fprintf(w, "%s%-*s  %s%d rec  self=%dr+%dw  total=%d io  %s",
		indent, 46-2*depth, label, in, s.Out, self.Reads, self.Writes, s.IO.IO(), fmtDur(s.Dur))
	for _, t := range s.Tags {
		fmt.Fprintf(w, "  %s=%s", t.Key, t.Value)
	}
	if s.Err != "" {
		fmt.Fprintf(w, "  err=%q", s.Err)
	}
	fmt.Fprintln(w)
	for _, c := range s.Children {
		c.format(w, depth+1)
	}
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d < time.Second:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

// Tracer builds a span tree while an engine evaluates a query. It is
// carried in the context (WithTracer / FromContext); a nil *Tracer is a
// valid no-op receiver for every method, so instrumented code pays one
// nil check — no allocation, no lock — when tracing is off.
//
// A tracer is single-goroutine, like the traced evaluation it observes
// (traced queries run serially). core.Directory and
// dirserver.Coordinator give every traced query a tracer over its own
// pager.Arena, which is what makes the recorded pager.Stats deltas
// exact while other queries run (see the ownership rule on
// pager.Stats).
type Tracer struct {
	src     StatsSource
	stack   []*Span
	roots   []*Span
	traceID string
	nextID  uint64
}

// StatsSource is anything whose cumulative page-I/O counters a Tracer
// can window: in practice a per-query *pager.Arena, exact even while
// other queries run because the arena's counters are private to the one
// evaluation being traced. A *pager.Disk also qualifies, exact only
// while nothing else touches it (the ownership rule).
type StatsSource interface {
	Stats() pager.Stats
}

// NewTracer creates a tracer recording page-I/O deltas from src.
func NewTracer(src StatsSource) *Tracer {
	return &Tracer{src: src}
}

// SetTraceID stamps the tracer with the query's 128-bit trace ID
// (nil-safe). Entry points assign one with NewTraceID; the dirserver
// protocol propagates it so every process traces under the same ID.
func (t *Tracer) SetTraceID(id string) {
	if t == nil {
		return
	}
	t.traceID = id
}

// TraceID returns the tracer's trace ID ("" when none was assigned).
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

// Start opens a span as a child of the currently open span (nil-safe).
func (t *Tracer) Start(op, detail string) *Span {
	if t == nil {
		return nil
	}
	t.nextID++
	sp := &Span{Op: op, Detail: detail, Start: time.Now(), ID: t.nextID, startIO: t.src.Stats()}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		sp.ParentID = parent.ID
		parent.Children = append(parent.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
	t.stack = append(t.stack, sp)
	return sp
}

// Attach grafts a completed span subtree recorded in another process
// under the innermost open span (nil-safe; with no open span it becomes
// a root). The subtree's root must carry its serving host so that I/O
// accounting treats it as a process boundary; its ParentID is pointed
// at the span it now hangs under, completing the {traceID,
// parentSpanID} linkage the wire protocol carries.
func (t *Tracer) Attach(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	if n := len(t.stack); n > 0 {
		parent := t.stack[n-1]
		sp.ParentID = parent.ID
		parent.Children = append(parent.Children, sp)
	} else {
		t.roots = append(t.roots, sp)
	}
}

// CurrentID returns the innermost open span's ID (0 when none): the
// parentSpanID a remote request issued right now should carry.
func (t *Tracer) CurrentID() uint64 {
	if t == nil || len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1].ID
}

// End closes the span, recording its duration, output cardinality, and
// page-I/O delta (nil-safe).
func (t *Tracer) End(sp *Span, out int64) {
	if t == nil || sp == nil {
		return
	}
	sp.Out = out
	t.close(sp)
}

// Fail closes the span with an error (nil-safe). The I/O performed up
// to the failure is still recorded.
func (t *Tracer) Fail(sp *Span, err error) {
	if t == nil || sp == nil {
		return
	}
	if err != nil {
		sp.Err = err.Error()
	}
	t.close(sp)
}

func (t *Tracer) close(sp *Span) {
	sp.Dur = time.Since(sp.Start)
	sp.IO = t.src.Stats().Sub(sp.startIO)
	// Pop back to sp; a mismatched End (a span closed twice, or out of
	// order) pops conservatively rather than corrupting ancestors.
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == sp {
			t.stack = t.stack[:n-1]
			return
		}
	}
}

// Annotate tags the innermost open span (nil-safe). Resolvers deep in
// the call chain — the distributed coordinator, most importantly — use
// this to stamp the current atomic's span with replica address, retry
// count, and cache outcome without threading the span through.
func (t *Tracer) Annotate(key, value string) {
	if t == nil || len(t.stack) == 0 {
		return
	}
	t.stack[len(t.stack)-1].Tag(key, value)
}

// Root returns the first completed top-level span (nil if none).
func (t *Tracer) Root() *Span {
	if t == nil || len(t.roots) == 0 {
		return nil
	}
	return t.roots[0]
}

// Roots returns every top-level span recorded by the tracer.
func (t *Tracer) Roots() []*Span {
	if t == nil {
		return nil
	}
	return t.roots
}

type tracerKey struct{}

// WithTracer returns a context carrying the tracer; the engine picks it
// up at every operator.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// FromContext returns the context's tracer, or nil — and nil is a
// valid no-op tracer, so callers never need to branch.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}
