package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = no parent
	Req    string `json:"req"`    // the pass or point the call served
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Inner is time inside the span that a layer the benchmark cannot
	// wrap spent on its behalf: the sweep runner's busy time inside an
	// experiments call, read from the runner's counters.
	Inner int64 `json:"inner_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endInner(id, 0) }

// endInner closes span id, recording inner time spent by a layer the
// benchmark cannot wrap.
func (t *tracer) endInner(id int, inner time.Duration) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Inner = inner.Nanoseconds()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array, with each span's self time.
func (t *tracer) write(path string) error {
	spans := t.snapshot()
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[i]}
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover (overlapping children counted once) and minus
// its inner time. Spans are indexed as recorded (ID-1).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(kids[s.ID], s.Start, s.End) - s.Inner
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
