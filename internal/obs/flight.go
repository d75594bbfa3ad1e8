package obs

import (
	"sync"
	"time"
)

// FlightRecord is one completed query trace retained by the flight
// recorder: the full span tree plus everything needed to find, filter,
// and correlate it after the fact — canonical query text, the store
// generation it evaluated against, its cost, and a result hash (so two
// records can be compared for answer drift without retaining the
// entries themselves).
type FlightRecord struct {
	Seq     uint64        `json:"seq"` // monotone per recorder; newer is larger
	TraceID string        `json:"trace"`
	TS      time.Time     `json:"ts"` // completion time, UTC
	Kind    string        `json:"kind"`
	Query   string        `json:"query"` // canonical text
	Gen     int64         `json:"gen"`
	Dur     time.Duration `json:"dur"`
	IO      int64         `json:"io"` // total page accesses (local process)
	Entries int           `json:"entries"`
	Hash    uint64        `json:"hash,omitempty"` // FNV-1a over the reply's record bytes
	Err     string        `json:"err,omitempty"`
	Root    *Span         `json:"root,omitempty"` // the span tree (remote subtrees included)
}

// FlightRecorder retains the last N completed query traces in a ring
// buffer — a post-hoc debugger for slow queries: where the slow-query
// log keeps one summary line, the recorder keeps the whole span tree,
// inspectable at /debug/queries without reproducing the query.
//
// Recording is cheap relative to the traced evaluation it documents:
// one short mutex acquisition storing one pointer into a fixed ring
// (the span tree was already built by the tracer). All methods are safe
// for concurrent use; a nil *FlightRecorder is a valid no-op receiver.
type FlightRecorder struct {
	mu   sync.Mutex
	ring []*FlightRecord
	next int    // ring index of the next write
	seq  uint64 // total records ever written
}

// NewFlightRecorder creates a recorder retaining the last n traces
// (minimum 1).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 1
	}
	return &FlightRecorder{ring: make([]*FlightRecord, n)}
}

// Record retains one completed trace, evicting the oldest when the ring
// is full (nil-safe). The record's Seq and TS are assigned here.
func (f *FlightRecorder) Record(rec *FlightRecord) {
	if f == nil || rec == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	rec.Seq = f.seq
	if rec.TS.IsZero() {
		rec.TS = time.Now().UTC()
	}
	f.ring[f.next] = rec
	f.next = (f.next + 1) % len(f.ring)
	f.mu.Unlock()
}

// Cap returns the ring's capacity.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.ring)
}

// Total returns how many traces were ever recorded (recorded minus
// retained = evicted).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Snapshot returns the retained records, newest first. The records are
// shared (treat them as read-only); the slice is the caller's.
func (f *FlightRecorder) Snapshot() []*FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*FlightRecord, 0, len(f.ring))
	for i := 1; i <= len(f.ring); i++ {
		// Walk backwards from the most recent write.
		rec := f.ring[(f.next-i+len(f.ring))%len(f.ring)]
		if rec == nil {
			break
		}
		out = append(out, rec)
	}
	return out
}

// Get returns the newest retained record with the given trace ID (nil
// if it aged out or never existed).
func (f *FlightRecorder) Get(traceID string) *FlightRecord {
	for _, rec := range f.Snapshot() {
		if rec.TraceID == traceID {
			return rec
		}
	}
	return nil
}

// RegisterMetrics exposes the recorder's counters on reg under the
// given prefix: total traces recorded and how many are currently
// retained.
func (f *FlightRecorder) RegisterMetrics(reg *Registry, prefix string) {
	reg.GaugeFunc(prefix+"_recorded_total", "query traces recorded by the flight recorder",
		func() int64 { return int64(f.Total()) })
	reg.GaugeFunc(prefix+"_retained", "query traces currently retained in the ring",
		func() int64 { return int64(len(f.Snapshot())) })
}
