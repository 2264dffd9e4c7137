package obs

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func span(msg int64) Span {
	return Span{
		Msg: msg, Seed: 9, Engine: "fast", Dest: 3, Arrival: 100,
		TotalWait: 5,
		Stages: []StageSpan{
			{Stage: 1, Enqueue: 100, Start: 102, Depart: 103, Wait: 2},
			{Stage: 2, Enqueue: 103, Start: 106, Depart: 107, Wait: 3},
		},
	}
}

func TestTracerDefaults(t *testing.T) {
	if tr := NewTracer(0, 0); tr.SampleN() != 1 || tr.ring != defaultTraceRing {
		t.Fatalf("defaults: sampleN %d ring %d", tr.SampleN(), tr.ring)
	}
	if tr := NewTracer(64, 16); tr.SampleN() != 64 || tr.ring != 16 {
		t.Fatalf("explicit: sampleN %d ring %d", tr.SampleN(), tr.ring)
	}
	// The ring grows as it fills: a large ring costs nothing up front.
	if tr := NewTracer(1, 1<<16); cap(tr.buf) != 0 {
		t.Fatalf("a fresh tracer reserved %d spans", cap(tr.buf))
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := int64(0); i < 6; i++ {
		tr.Add(span(i))
	}
	if tr.Total() != 6 {
		t.Fatalf("total %d, want 6", tr.Total())
	}
	got := tr.Spans()
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	for i, s := range got {
		if s.Msg != int64(i+2) {
			t.Fatalf("eviction order wrong: got msgs %v", got)
		}
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(1, 8)
	tr.Add(span(0))
	tr.Add(span(64))
	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines int
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", lines, err, sc.Text())
		}
		// The span invariant the trace format promises: stage waits sum
		// to the total, and each wait is Start - Enqueue.
		var sum int64
		for _, st := range s.Stages {
			if st.Wait != st.Start-st.Enqueue {
				t.Fatalf("stage %d wait %d != start-enqueue %d", st.Stage, st.Wait, st.Start-st.Enqueue)
			}
			sum += st.Wait
		}
		if sum != s.TotalWait {
			t.Fatalf("stage waits sum %d != total %d", sum, s.TotalWait)
		}
		if !strings.Contains(sc.Text(), `"total_wait"`) {
			t.Fatalf("missing total_wait field: %s", sc.Text())
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

// stagedSpan is span msg with n stages, stage i waiting i+1 cycles.
func stagedSpan(msg int64, n int) Span {
	s := Span{Msg: msg, Dest: uint32(msg), Arrival: 10 * msg}
	at := s.Arrival
	for i := 0; i < n; i++ {
		w := int64(i + 1)
		s.Stages = append(s.Stages, StageSpan{Stage: i + 1, Enqueue: at, Start: at + w, Depart: at + w + 1, Wait: w})
		s.TotalWait += w
		at += w + 1
	}
	return s
}

// TestTracerOwnsItsStorage: the ring keeps copies, and hands out
// copies. Spans taken from the tracer do not change when later Adds
// wrap the ring — including a wrap that reuses a 12-stage span's
// storage for a 3-stage one — changing the slice passed to Add does not
// change the span the ring keeps, and WriteJSONL after wraps renders no
// stage entry left over from an evicted span.
func TestTracerOwnsItsStorage(t *testing.T) {
	tr := NewTracer(1, 2)
	tr.Add(stagedSpan(0, 12))
	tr.Add(stagedSpan(1, 12))
	before := tr.Spans()
	want := []Span{stagedSpan(0, 12), stagedSpan(1, 12)}
	if !reflect.DeepEqual(before, want) {
		t.Fatalf("retained spans %+v, want %+v", before, want)
	}

	// Wrap twice with 3-stage spans, each filling a 12-stage slot, and
	// scribble over the caller's slice after every Add.
	for msg := int64(2); msg < 6; msg++ {
		s := stagedSpan(msg, 3)
		tr.Add(s)
		for i := range s.Stages {
			s.Stages[i] = StageSpan{Stage: -1, Wait: -1}
		}
	}
	if !reflect.DeepEqual(before, want) {
		t.Fatalf("earlier Spans() result changed after the ring wrapped: %+v", before)
	}
	after := tr.Spans()
	if want := []Span{stagedSpan(4, 3), stagedSpan(5, 3)}; !reflect.DeepEqual(after, want) {
		t.Fatalf("after wraps: retained %+v, want %+v", after, want)
	}

	// Appending to a returned span's stages must not reach the next one.
	_ = append(after[0].Stages, StageSpan{Stage: 99})
	if again := tr.Spans(); !reflect.DeepEqual(again, after) || after[1].Stages[0].Stage != 1 {
		t.Fatalf("appending to a returned span changed another: %+v", after)
	}

	var sb strings.Builder
	if err := tr.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2:\n%s", len(lines), sb.String())
	}
	for i, line := range lines {
		var s Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, stagedSpan(int64(4+i), 3)) {
			t.Fatalf("line %d renders %+v, want the 3-stage span %d", i, s, 4+i)
		}
	}
}

// TestTracerSlotsTakeWidestCapacity: a slot too short for its span gets
// room for the widest span recorded so far, so runs that alternate
// 3- and 12-stage networks reallocate each slot at most once per new
// widest span. Copied to the span's own length instead, a 3-stage slot
// reallocated whenever a 12-stage span landed in it.
func TestTracerSlotsTakeWidestCapacity(t *testing.T) {
	tr := NewTracer(1, 4)
	for i, n := range []int{3, 12, 3, 3} {
		tr.Add(stagedSpan(int64(i), n))
	}
	var caps []int
	for _, s := range tr.buf {
		caps = append(caps, cap(s.Stages))
	}
	if want := []int{3, 12, 12, 12}; !reflect.DeepEqual(caps, want) {
		t.Fatalf("slot capacities %v, want %v", caps, want)
	}
	// The warm-up pass grows slot 0 to 12 stages; no later pass allocates.
	spans := []Span{stagedSpan(4, 12), stagedSpan(5, 3), stagedSpan(6, 12), stagedSpan(7, 3)}
	if allocs := testing.AllocsPerRun(10, func() {
		for _, s := range spans {
			tr.Add(s)
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per pass over the full ring, want 0", allocs)
	}
}
