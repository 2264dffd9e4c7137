package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func startTestServer(t *testing.T, opts DebugOptions) *DebugServer {
	t.Helper()
	srv, err := StartDebugServer("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func get(t *testing.T, srv *DebugServer, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + srv.Addr() + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestDebugHistEndpoint checks the /debug/hist JSON shape: total plus
// per-stage snapshots with quantiles and sparklines.
func TestDebugHistEndpoint(t *testing.T) {
	hs := NewHistSet()
	hs.Total().Record(10)
	hs.Total().Record(200)
	st := hs.Stages(2)
	for v := int64(0); v < 50; v++ {
		st[0].Record(v)
		st[1].Record(v * 3)
	}
	srv := startTestServer(t, DebugOptions{Hists: hs})

	code, body := get(t, srv, "/debug/hist")
	if code != http.StatusOK {
		t.Fatalf("/debug/hist status %d", code)
	}
	var resp struct {
		Total struct {
			HistSnapshot
			Spark string `json:"spark"`
		} `json:"total"`
		Stages []struct {
			HistSnapshot
			Spark string `json:"spark"`
		} `json:"stages"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/debug/hist not JSON: %v\n%s", err, body)
	}
	if resp.Total.Count != 2 || resp.Total.Max != 200 {
		t.Fatalf("total snapshot wrong: %+v", resp.Total)
	}
	if len(resp.Stages) != 2 {
		t.Fatalf("stages %d, want 2", len(resp.Stages))
	}
	if resp.Stages[0].Count != 50 || resp.Stages[0].P50 != 24 {
		t.Fatalf("stage 1 snapshot wrong: %+v", resp.Stages[0])
	}
	if resp.Stages[1].Spark == "" {
		t.Fatalf("stage 2 sparkline missing")
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	tr := NewTracer(1, 8)
	tr.Add(span(0))
	srv := startTestServer(t, DebugOptions{Tracer: tr})
	code, body := get(t, srv, "/debug/trace")
	if code != http.StatusOK {
		t.Fatalf("/debug/trace status %d", code)
	}
	var s Span
	if err := json.Unmarshal([]byte(strings.TrimSpace(body)), &s); err != nil {
		t.Fatalf("/debug/trace not JSONL: %v\n%s", err, body)
	}
	if s.Msg != 0 || len(s.Stages) != 2 {
		t.Fatalf("span round-trip wrong: %+v", s)
	}
}

// TestDebugEndpointsAbsent: unconfigured surfaces must 404, not serve
// empty data that looks real.
func TestDebugEndpointsAbsent(t *testing.T) {
	srv := startTestServer(t, DebugOptions{})
	for _, path := range []string{"/metrics", "/debug/events", "/debug/hist", "/debug/trace", "/debug/ts", "/debug/vars"} {
		if code, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Fatalf("GET %s with nil backing: status %d, want 404", path, code)
		}
	}
}

// TestMetricsOpenMetricsDefault: /metrics serves OpenMetrics (correct
// content type, parseable, histogram family from live Hist data).
func TestMetricsOpenMetricsDefault(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("points.done").Add(5)
	hs := NewHistSet()
	hs.Total().Record(3)
	hs.Total().Record(7)
	srv := startTestServer(t, DebugOptions{Registry: reg, Hists: hs})

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Fatalf("content type %q, want application/openmetrics-text", ct)
	}
	fams, err := ParseOpenMetrics(resp.Body)
	if err != nil {
		t.Fatalf("/metrics is not valid OpenMetrics: %v", err)
	}
	var sawHist bool
	for _, f := range fams {
		if f.Name == "banyan_wait_cycles" && f.Type == "histogram" {
			sawHist = true
		}
	}
	if !sawHist {
		t.Fatal("live histogram family missing from /metrics")
	}
}

// TestDebugHistParamValidation: out-of-range or non-numeric ?width= is
// a 400, not a silently clamped render.
func TestDebugHistParamValidation(t *testing.T) {
	hs := NewHistSet()
	hs.Total().Record(1)
	srv := startTestServer(t, DebugOptions{Hists: hs})
	for _, q := range []string{"?width=4", "?width=9999", "?width=abc", "?width=-1"} {
		if code, _ := get(t, srv, "/debug/hist"+q); code != http.StatusBadRequest {
			t.Fatalf("GET /debug/hist%s: status %d, want 400", q, code)
		}
	}
	if code, _ := get(t, srv, "/debug/hist?width=16"); code != http.StatusOK {
		t.Fatal("valid width rejected")
	}
}

// TestDebugTSEndpoint drives /debug/ts: JSON with null gaps, the spark
// format, name filtering, and 400/404 on bad parameters.
func TestDebugTSEndpoint(t *testing.T) {
	reg := NewRegistry()
	var v float64
	reg.Func("x", func() float64 { return v })
	tsdb := NewTSDB(reg, 32)
	clk := &tsdbClock{t: time.UnixMilli(0)}
	tsdb.Now = clk.now
	for i := 0; i < 6; i++ {
		v = float64(i)
		tsdb.Sample()
		clk.tick()
	}
	srv := startTestServer(t, DebugOptions{TSDB: tsdb})

	code, body := get(t, srv, "/debug/ts?buckets=5")
	if code != http.StatusOK {
		t.Fatalf("/debug/ts status %d", code)
	}
	var series []struct {
		Name   string  `json:"name"`
		Times  []int64 `json:"unix_ms"`
		Values []any   `json:"values"`
	}
	if err := json.Unmarshal([]byte(body), &series); err != nil {
		t.Fatalf("/debug/ts not JSON: %v\n%s", err, body)
	}
	if len(series) != 1 || series[0].Name != "x" || len(series[0].Values) != 5 {
		t.Fatalf("series shape wrong: %+v", series)
	}

	if code, body := get(t, srv, "/debug/ts?format=spark&name=x"); code != http.StatusOK || !strings.Contains(body, "x") {
		t.Fatalf("spark format broken: %d\n%s", code, body)
	}
	if code, _ := get(t, srv, "/debug/ts?name=nope"); code != http.StatusNotFound {
		t.Fatal("unknown series must 404")
	}
	for _, q := range []string{"?buckets=0", "?buckets=99999", "?buckets=x", "?window=nope", "?window=-5s", "?window=48h", "?format=spark&width=2"} {
		if code, _ := get(t, srv, "/debug/ts"+q); code != http.StatusBadRequest {
			t.Fatalf("GET /debug/ts%s: status %d, want 400", q, code)
		}
	}
}

// TestDebugConcurrentScrape hammers every endpoint while the backing
// structures are being written — the -race guard for the live-scrape
// path.
func TestDebugConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	ring := NewRingSink(32)
	hs := NewHistSet()
	hs.Register(reg, "wait")
	tr := NewTracer(1, 32)
	srv := startTestServer(t, DebugOptions{Registry: reg, Events: ring, Hists: hs, Tracer: tr})

	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		stages := hs.Stages(3)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			hs.Total().Record(i % 500)
			stages[int(i%3)].Record(i % 100)
			ring.Emit(Event{Event: EventPointDone, Rep: int(i)})
			tr.Add(span(i))
		}
	}()

	paths := []string{"/metrics", "/debug/events", "/debug/hist", "/debug/trace"}
	var readers sync.WaitGroup
	for _, p := range paths {
		for w := 0; w < 2; w++ {
			readers.Add(1)
			go func(path string) {
				defer readers.Done()
				for i := 0; i < 20; i++ {
					code, body := get(t, srv, path)
					if code != http.StatusOK {
						t.Errorf("GET %s: status %d", path, code)
						return
					}
					if path == "/debug/hist" {
						var v map[string]any
						if err := json.Unmarshal([]byte(body), &v); err != nil {
							t.Errorf("GET %s: malformed JSON under concurrency: %v", path, err)
							return
						}
					}
				}
			}(p)
		}
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestDebugHistSwitches checks the /debug/hist "switches" section: with
// a probe carrying graph-engine per-switch telemetry the endpoint
// reports high-water marks, blocked cycles, and the engine's saturation
// verdicts; without one the section is absent entirely.
func TestDebugHistSwitches(t *testing.T) {
	hs := NewHistSet()
	hs.Total().Record(1)
	probe := NewSimProbe()
	probe.Record(RunSample{
		SwitchHW:      [][]int64{{40, 3}, {1, 0}},
		SwitchBlocked: [][]int64{{0, 7}, {0, 0}},
		SwitchSat:     [][]bool{{true, true}, {false, false}},
		BlockedCycles: 7,
	})
	srv := startTestServer(t, DebugOptions{Hists: hs, Probe: probe})

	code, body := get(t, srv, "/debug/hist")
	if code != http.StatusOK {
		t.Fatalf("/debug/hist status %d", code)
	}
	var resp struct {
		Switches []struct {
			Stage     int   `json:"stage"`
			Switch    int   `json:"switch"`
			HighWater int64 `json:"high_water"`
			Blocked   int64 `json:"blocked"`
			Saturated bool  `json:"saturated"`
		} `json:"switches"`
		BlockedCycles int64 `json:"blocked_cycles"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("/debug/hist not JSON: %v\n%s", err, body)
	}
	if len(resp.Switches) != 4 || resp.BlockedCycles != 7 {
		t.Fatalf("switch section wrong: %+v", resp)
	}
	// Switch (1,0): high water 40 ≥ default depth 32 → saturated.
	// Switch (1,1): blocked cycles 7 → saturated despite low backlog.
	// Stage 2 switches: idle → not saturated.
	want := []struct {
		sat bool
		hw  int64
	}{{true, 40}, {true, 3}, {false, 1}, {false, 0}}
	for i, sw := range resp.Switches {
		if sw.Saturated != want[i].sat || sw.HighWater != want[i].hw {
			t.Fatalf("switch %d verdict wrong: %+v", i, sw)
		}
	}

	// Without a probe the section must not appear at all.
	bare := startTestServer(t, DebugOptions{Hists: hs})
	_, body = get(t, bare, "/debug/hist")
	if strings.Contains(body, "switches") {
		t.Fatalf("probe-less /debug/hist leaked a switches section:\n%s", body)
	}
}
