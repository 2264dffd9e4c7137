package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				s.Emit(Event{Event: EventPointDone, Label: fmt.Sprintf("p%d", i), Messages: int64(j)})
			}
		}(i)
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 100 {
		t.Fatalf("got %d lines, want 100", len(lines))
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable line %q: %v", line, err)
		}
		if ev.Event != EventPointDone || ev.Time.IsZero() {
			t.Fatalf("bad event %+v", ev)
		}
		// Zero fields must be omitted, not serialized as noise.
		if strings.Contains(line, `"err"`) || strings.Contains(line, `"cycles"`) {
			t.Fatalf("zero fields not omitted: %s", line)
		}
	}
}

func TestRingSinkBounded(t *testing.T) {
	r := NewRingSink(4)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Event: EventPointDone, Rep: i})
	}
	if r.Total() != 10 {
		t.Fatalf("total %d, want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Rep != 6+i {
			t.Fatalf("ring order wrong: %+v", evs)
		}
	}
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n"); n != 4 {
		t.Fatalf("jsonl lines %d, want 4", n)
	}
}

func TestMultiSink(t *testing.T) {
	a, b := NewRingSink(8), NewRingSink(8)
	m := MultiSink{a, b}
	m.Emit(Event{Event: EventPointStarted})
	if a.Total() != 1 || b.Total() != 1 {
		t.Fatalf("fan-out missed a sink: %d %d", a.Total(), b.Total())
	}
}

// TestDebugServer drives the whole -debug-addr surface: OpenMetrics,
// the event ring and the pprof index.
func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("points.done").Add(5)
	ring := NewRingSink(8)
	ring.Emit(Event{Event: EventPointDone, Label: "x"})

	srv, err := StartDebugServer("127.0.0.1:0", DebugOptions{Registry: reg, Events: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "banyan_points_done_total 5") {
		t.Fatalf("/metrics missing OpenMetrics counter:\n%s", body)
	}
	if body := get("/debug/events"); !strings.Contains(body, `"label":"x"`) {
		t.Fatalf("/debug/events missing event:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ not the pprof index:\n%s", body)
	}
}
