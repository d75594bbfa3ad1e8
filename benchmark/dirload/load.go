package main

import (
	"context"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/dirserver"
	"repro/internal/ldif"
	"repro/internal/model"
)

// answer identifies a result: how many entries, and the FNV-1a hash of
// their ldif.MarshalEntry blocks in reply order.
type answer struct {
	Count int    `json:"count"`
	Hash  uint64 `json:"hash"`
}

func hashEntries(entries []*model.Entry) answer {
	h := fnv.New64a()
	for _, e := range entries {
		_, _ = h.Write([]byte(ldif.MarshalEntry(e)))
	}
	return answer{Count: len(entries), Hash: h.Sum64()}
}

// sample is one completed request.
type sample struct {
	q          int // pool index (reads) or write index (writes)
	start, end time.Duration
	got        answer
	gen        int64
	// wire, queue and serve split the round trip (reads only): the
	// server reports serve and queue, wire is what remains.
	wire, queue, serve time.Duration
	// late is how far behind its schedule an open-loop request left.
	late   time.Duration
	failed bool
}

func (s sample) latency() time.Duration { return s.end - s.start }

// clock is the benchmark's time base: offsets from one origin, so
// samples from different goroutines compare directly.
type clock struct{ origin time.Time }

func (c clock) now() time.Duration { return time.Since(c.origin) }

func (c clock) sleepUntil(t time.Duration) {
	if d := t - c.now(); d > 0 {
		time.Sleep(d)
	}
}

// caller issues one request and reports the decoded reply; it is
// dirserver.Client.CallTraced in production and a stub in tests.
type caller func(kind, text string) ([]*model.Entry, int64, *dirserver.RemoteTrace, error)

func clientCaller(cl *dirserver.Client, addr string) caller {
	return func(kind, text string) ([]*model.Entry, int64, *dirserver.RemoteTrace, error) {
		// An empty trace ID keeps the request byte-identical to an
		// untraced one: the server does not trace on our account, but the
		// reply still carries its serve and queue times.
		return cl.CallTraced(context.Background(), addr, kind, text, "", 0)
	}
}

// read issues pool[q] and records the sample, timed from start.
func read(clk clock, call caller, pool []string, q int, start time.Duration) sample {
	entries, gen, rt, err := call("query", pool[q])
	s := sample{q: q, start: start, end: clk.now(), gen: gen, failed: err != nil}
	if err == nil {
		s.got = hashEntries(entries)
	}
	if rt != nil {
		s.wire, s.queue, s.serve = rt.Wire, rt.Queue, rt.Serve
	}
	return s
}

// closedLoop sends the stream's requests back to back on one connection
// until the clock passes until: the next request leaves only when the
// previous reply has been decoded and hashed.
func closedLoop(clk clock, call caller, pool []string, st *stream, until time.Duration) []sample {
	var out []sample
	for {
		start := clk.now()
		if start >= until {
			return out
		}
		out = append(out, read(clk, call, pool, st.next(), start))
	}
}

// openLoop sends one request every 1/rate seconds from begin until the
// clock passes until, on one connection. Each request is timed from the
// instant it was due, not from when it was sent, so the wait a stall
// imposes on the requests behind it counts; the sample also records how
// late the generator sent it.
func openLoop(clk clock, call caller, pool []string, st *stream, rate float64, begin, until time.Duration) []sample {
	var out []sample
	for i := 0; ; i++ {
		due := begin + time.Duration(float64(i)/rate*float64(time.Second))
		if due >= until {
			return out
		}
		clk.sleepUntil(due)
		late := max(clk.now()-due, 0)
		s := read(clk, call, pool, st.next(), due)
		s.late = late
		out = append(out, s)
	}
}

// writeLoop sends the write stream back to back until the clock passes
// until. Every write is acknowledged only after its checkpoint, so the
// sample's latency is the durable-ack latency and gen the generation
// the ack promised.
func writeLoop(clk clock, call caller, ws *writeStream, until time.Duration) (out []sample, ops []writeOp) {
	for {
		start := clk.now()
		if start >= until {
			return out, ops
		}
		op := ws.next()
		_, gen, _, err := call(op.kind, op.text)
		out = append(out, sample{q: len(ops), start: start, end: clk.now(), gen: gen, failed: err != nil})
		ops = append(ops, op)
	}
}

// window keeps the samples that started and ended inside [from, to].
func window(in []sample, from, to time.Duration) []sample {
	var out []sample
	for _, s := range in {
		if s.start >= from && s.end <= to {
			out = append(out, s)
		}
	}
	return out
}

// percentile returns the p-quantile (0 < p < 1) of xs by the
// nearest-rank rule, and whether the sample supports it: a percentile
// needs at least ten samples beyond it. When it does not, the highest
// supported quantile is returned in its place (never below the median),
// so a short run reports a number it can stand behind.
func percentile(xs []float64, p float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	rank := func(p float64) int { // 1-based nearest rank
		r := int(p*float64(n) + 0.999999999)
		return min(max(r, 1), n)
	}
	r := rank(p)
	if p <= 0.5 || n-r >= 10 {
		return sorted[r-1], true
	}
	return sorted[max(n-10, rank(0.5))-1], false
}

// column extracts one duration per sample, in the given unit.
func column(ss []sample, unit time.Duration, pick func(sample) time.Duration) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(pick(s)) / float64(unit)
	}
	return out
}

func latenciesMS(ss []sample) []float64 {
	return column(ss, time.Millisecond, sample.latency)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}
