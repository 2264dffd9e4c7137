package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// StageSpan is one stage of a traced message's journey, in absolute
// simulation cycles: the message joins the stage's output queue at
// Enqueue, its service begins at Start (Wait = Start − Enqueue, the
// quantity the paper analyzes per stage), and the output port is busy
// until Depart = Start + service. Under cut-through switching the
// message enters the next stage's queue at Start + 1.
type StageSpan struct {
	Stage   int   `json:"stage"` // 1-based
	Enqueue int64 `json:"enqueue"`
	Start   int64 `json:"start"`
	Depart  int64 `json:"depart"`
	Wait    int64 `json:"wait"`
}

// Span is the end-to-end trace of one sampled message. Msg is the
// message's ordinal among the run's measured messages in trace order —
// the deterministic sampling key, identical across engines consuming
// the same trace — so spans from the fast and literal engines can be
// joined message by message. The per-stage waits sum to TotalWait.
type Span struct {
	Msg       int64       `json:"msg"`
	Seed      uint64      `json:"seed,omitempty"`
	Engine    string      `json:"engine,omitempty"`
	Dest      uint32      `json:"dest"`
	Arrival   int64       `json:"arrival"` // stage-1 arrival cycle
	TotalWait int64       `json:"total_wait"`
	Stages    []StageSpan `json:"stages"`
}

// defaultTraceRing bounds a Tracer's retained spans when the caller
// does not choose a size.
const defaultTraceRing = 4096

// Tracer is a flight recorder for per-message trace spans: engines with
// a tracer attached (via SimProbe.Tracer) sample one in SampleN of
// their measured messages — deterministically, by measured-message
// ordinal, never by consuming simulation randomness — and deposit the
// completed spans into a bounded ring. Safe for concurrent use.
//
// The ring owns its spans' stage storage: Add copies the stages into
// the slot it fills, reusing the capacity of the span it evicts, so a
// full ring records without allocating. A slot too short for its span
// gets room for the widest span recorded so far, so runs that alternate
// shallow and deep networks reallocate a slot at most once per new
// widest span, not whenever a deep span follows a shallow one. Spans
// and WriteJSONL hand out copies, so no caller ever aliases ring
// storage. The ring grows as it fills, so a large ring that a short run
// barely uses costs little.
type Tracer struct {
	sampleN int64
	ring    int

	mu     sync.Mutex
	buf    []Span
	next   int
	total  int64
	widest int // the most stages of any span recorded
}

// NewTracer returns a tracer sampling one in sampleN measured messages
// (sampleN < 1 becomes 1: trace everything) and retaining the most
// recent ring spans (ring < 1 picks a default).
func NewTracer(sampleN, ring int) *Tracer {
	if sampleN < 1 {
		sampleN = 1
	}
	if ring < 1 {
		ring = defaultTraceRing
	}
	return &Tracer{sampleN: int64(sampleN), ring: ring}
}

// SampleN returns the 1-in-N sampling rate.
func (t *Tracer) SampleN() int64 { return t.sampleN }

// Add deposits a copy of one completed span, evicting the oldest when
// full. The tracer keeps none of s's storage: the caller may reuse
// s.Stages as soon as Add returns.
func (t *Tracer) Add(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.buf) < t.ring {
		t.buf = append(t.buf, Span{})
	}
	slot := &t.buf[t.next]
	t.widest = max(t.widest, len(s.Stages))
	stages := slot.Stages[:0]
	if cap(stages) < len(s.Stages) {
		stages = make([]StageSpan, 0, t.widest)
	}
	stages = append(stages, s.Stages...)
	*slot = s
	slot.Stages = stages
	t.next = (t.next + 1) % t.ring
	t.total++
}

// Total returns the number of spans ever recorded (including evicted).
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns copies of the retained spans, oldest first; their stage
// slices share one fresh backing array, none of it the ring's.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if len(t.buf) == t.ring {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	var n int
	for _, s := range out {
		n += len(s.Stages)
	}
	flat := make([]StageSpan, 0, n)
	for i, s := range out {
		off := len(flat)
		flat = append(flat, s.Stages...)
		out[i].Stages = flat[off:len(flat):len(flat)]
	}
	return out
}

// WriteJSONL renders the retained spans as JSON lines, oldest first —
// the -trace-out file format and the /debug/trace wire format. It
// renders a copy, so writing to a slow reader does not hold up Add.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	for _, s := range t.Spans() {
		line, err := json.Marshal(s)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return nil
}
