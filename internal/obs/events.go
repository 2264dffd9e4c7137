package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event kinds emitted by the sweep runner, one per point lifecycle
// transition.
const (
	EventPointStarted   = "point_started"   // first replication picked up by a worker
	EventPointRetried   = "point_retried"   // a replication failed and is being retried
	EventPointTruncated = "point_truncated" // a replication stopped early (guard, budget, cancel)
	EventPointJournaled = "point_journaled" // point appended to the checkpoint journal
	EventPointDone      = "point_done"      // point completed cleanly
	EventPointFailed    = "point_failed"    // point ended with a terminal error
	EventPointCached    = "point_cached"    // served from the cross-batch cache
	EventPointResumed   = "point_resumed"   // served from the checkpoint journal
	EventPointAliased   = "point_aliased"   // in-batch duplicate of an earlier point
	EventPointStopped   = "point_stopped"   // adaptive point met its CI target before the replication cap
	EventDrift          = "drift"           // empirical waits diverged from the analytic model

	// Fault-tolerance events (chaos runs and the watchdog).
	EventFaultInjected = "fault_injected" // a deterministic injection point fired
	EventWatchdogFired = "watchdog_fired" // the watchdog cancelled a stalled replication
)

// StageQuantiles is a compact per-stage waiting-time digest attached to
// point lifecycle events when the runner collects waiting-time
// histograms: sample count, mean, and tail quantiles in cycles.
type StageQuantiles struct {
	Stage int     `json:"stage"` // 1-based; 0 means total end-to-end wait
	N     int64   `json:"n"`
	Mean  float64 `json:"mean"`
	P50   int     `json:"p50"`
	P90   int     `json:"p90"`
	P99   int     `json:"p99"`
	P999  int     `json:"p999"`
}

// Event is one structured observability record. Fields that do not
// apply to a given kind are zero and omitted from the JSON encoding.
type Event struct {
	Time     time.Time `json:"time"`
	Event    string    `json:"event"`
	Label    string    `json:"label,omitempty"`
	Key      string    `json:"key,omitempty"` // canonical config hash, hex
	Seed     uint64    `json:"seed,omitempty"`
	Engine   string    `json:"engine,omitempty"`
	Rep      int       `json:"rep,omitempty"`
	Attempt  int       `json:"attempt,omitempty"`
	WallMS   float64   `json:"wall_ms,omitempty"`
	Cycles   int64     `json:"cycles,omitempty"`
	Messages int64     `json:"messages,omitempty"`
	Dropped  int64     `json:"dropped,omitempty"`
	Err      string    `json:"err,omitempty"`
	Fault    string    `json:"fault,omitempty"`  // fault class (EventFaultInjected)
	Record   int       `json:"record,omitempty"` // journal record ordinal, 1-based (journal faults)

	// Drift-monitor fields (EventDrift) and histogram digests attached
	// to point completion when waiting-time histograms are collected.
	Stage     int              `json:"stage,omitempty"`  // offending stage, 1-based
	Switch    int              `json:"switch,omitempty"` // offending switch, 1-based (per-switch drift on graph points)
	KS        float64          `json:"ks,omitempty"`
	Threshold float64          `json:"threshold,omitempty"`
	Waits     []StageQuantiles `json:"waits,omitempty"`

	// HalfWidth is the confidence-interval half-width an adaptive point
	// stopped at (EventPointStopped; Rep carries the replication count).
	HalfWidth float64 `json:"half_width,omitempty"`

	// Cost is the point's resource-cost digest, attached to completion
	// events when the runner attributes cost (see sweep.PointCost).
	Cost *CostDigest `json:"cost,omitempty"`
}

// CostDigest is a compact per-point resource accounting attached to
// point completion events: the wall time the point's simulation
// attempts took and how much simulation it bought — cycles,
// replications and, under variance reduction, effective sample size.
type CostDigest struct {
	WallNS int64   `json:"wall_ns"`
	Cycles int64   `json:"cycles"`
	Reps   int     `json:"reps"`
	ESS    float64 `json:"ess,omitempty"`
}

// Sink receives events. Emit may be called from any goroutine;
// implementations must be safe for concurrent use and must not block
// on the caller's critical path longer than a buffered write.
type Sink interface {
	Emit(Event)
}

// JSONLSink writes each event as one JSON line. Each line is a single
// Write call, so concurrent emitters never interleave bytes.
type JSONLSink struct {
	// Now replaces time.Now for tests; nil means time.Now.
	Now func() time.Time

	mu sync.Mutex
	w  io.Writer
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink. Marshal or write errors are dropped: an
// observability sink must never fail the sweep it observes.
func (s *JSONLSink) Emit(ev Event) {
	if ev.Time.IsZero() {
		if s.Now != nil {
			ev.Time = s.Now()
		} else {
			ev.Time = time.Now()
		}
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	s.w.Write(line)
}

// RingSink keeps the most recent events in a bounded ring, for serving
// a live tail over HTTP without unbounded memory.
type RingSink struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int64
}

// NewRingSink returns a ring holding the last n events (n < 1 becomes 1).
func NewRingSink(n int) *RingSink {
	if n < 1 {
		n = 1
	}
	return &RingSink{buf: make([]Event, 0, n)}
}

// Emit implements Sink.
func (s *RingSink) Emit(ev Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, ev)
	} else {
		s.buf[s.next] = ev
	}
	s.next = (s.next + 1) % cap(s.buf)
	s.total++
}

// Total returns the number of events ever emitted (including evicted).
func (s *RingSink) Total() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Events returns the retained events, oldest first.
func (s *RingSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, len(s.buf))
	if len(s.buf) == cap(s.buf) {
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf...)
	}
	return out
}

// WriteJSONL renders the retained events as JSON lines, oldest first.
func (s *RingSink) WriteJSONL(w io.Writer) error {
	for _, ev := range s.Events() {
		line, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}

// MultiSink fans each event out to every sink.
type MultiSink []Sink

// Emit implements Sink.
func (m MultiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}
