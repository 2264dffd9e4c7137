package sweep

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"banyan/internal/obs"
)

// TestResumeRequiresCheckpoint is the regression test for the silent
// -resume bug: Apply used to ignore Resume entirely when Checkpoint was
// unset, so "banyan-tables -resume" quietly recomputed everything.
func TestResumeRequiresCheckpoint(t *testing.T) {
	o := &RunOptions{Resume: true}
	if _, _, err := o.Apply(&Runner{}); err == nil || !strings.Contains(err.Error(), "-checkpoint") {
		t.Fatalf("resume without checkpoint: want refusal naming -checkpoint, got %v", err)
	}
	// With a checkpoint the combination stays valid.
	o = &RunOptions{Resume: true, Checkpoint: filepath.Join(t.TempDir(), "ckpt.jsonl")}
	r := &Runner{}
	_, cleanup, err := o.Apply(r)
	if err != nil {
		t.Fatalf("resume with checkpoint: %v", err)
	}
	cleanup()
}

// TestRegisterFlags: the observability flags parse and land in the
// options.
func TestRegisterFlags(t *testing.T) {
	var o RunOptions
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o.RegisterFlags(fs)
	err := fs.Parse([]string{
		"-timeout", "10m", "-max-retries", "3",
		"-events", "ev.jsonl", "-debug-addr", ":6060", "-sim-stats",
		"-trace-out", "spans.jsonl", "-trace-sample", "32",
		"-drift-check", "-drift-threshold", "0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.EventsPath != "ev.jsonl" || o.DebugAddr != ":6060" || !o.SimStats || o.MaxRetries != 3 {
		t.Fatalf("flags not applied: %+v", o)
	}
	if o.TraceOut != "spans.jsonl" || o.TraceSample != 32 || !o.DriftCheck || o.DriftThreshold != 0.2 {
		t.Fatalf("tracing/drift flags not applied: %+v", o)
	}
}

// TestApplyObservabilityWiring drives the whole -events/-debug-addr/
// -sim-stats surface end to end: a sweep run under Apply serves live
// metrics and events over HTTP, writes the JSONL event log, and feeds
// the engine probe.
func TestApplyObservabilityWiring(t *testing.T) {
	events := filepath.Join(t.TempDir(), "events.jsonl")
	o := &RunOptions{EventsPath: events, DebugAddr: "127.0.0.1:0", SimStats: true}
	r := &Runner{RootSeed: 7}
	ctx, cleanup, err := o.Apply(r)
	if err != nil {
		t.Fatal(err)
	}
	pts := quickPoints(1) // 3 points
	if _, err := r.RunCtx(ctx, pts); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + o.DebugServer().Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	om := get("/metrics")
	for _, want := range []string{"# TYPE banyan_sweep_points_done gauge", "banyan_sweep_points_done 3", "banyan_sweep_points_total 3", "banyan_sim_runs 3", "# EOF"} {
		if !strings.Contains(om, want) {
			t.Fatalf("/metrics missing OpenMetrics %q:\n%s", want, om)
		}
	}
	if _, err := obs.ParseOpenMetrics(strings.NewReader(om)); err != nil {
		t.Fatalf("/metrics does not parse as OpenMetrics: %v", err)
	}
	if ring := get("/debug/events"); !strings.Contains(ring, `"event":"point_done"`) {
		t.Fatalf("/debug/events missing point_done:\n%s", ring)
	}

	cleanup()
	if o.DebugServer() == nil {
		t.Fatal("debug server not retained on options")
	}

	// The JSONL event log holds one parseable line per lifecycle event,
	// with started/done pairs for every point.
	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Event string `json:"event"`
			Label string `json:"label"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable event line %q: %v", line, err)
		}
		counts[ev.Event]++
	}
	if counts["point_started"] != 3 || counts["point_done"] != 3 {
		t.Fatalf("event log mix: %v", counts)
	}

	// -sim-stats attached a probe that saw every replication.
	if s := r.Probe.Snapshot(); s.Runs != 3 || s.Messages == 0 {
		t.Fatalf("sim-stats probe missed the sweep: %+v", s)
	}
}

// TestApplyLedgerAndTSWiring drives -ledger-out and -ts-interval the
// way a binary would: Apply attaches the collector and the metric
// history sampler, /debug/ts serves sampled series during the run, and
// cleanup writes a reconciled ledger JSON artifact.
func TestApplyLedgerAndTSWiring(t *testing.T) {
	ledgerOut := filepath.Join(t.TempDir(), "ledger.json")
	o := &RunOptions{
		LedgerOut: ledgerOut,
		DebugAddr: "127.0.0.1:0",
		// A tight cadence so the TSDB is guaranteed samples mid-run.
		TSInterval: time.Millisecond,
	}
	r := &Runner{RootSeed: 13}
	ctx, cleanup, err := o.Apply(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ledger == nil {
		t.Fatal("-ledger-out did not attach a collector")
	}
	if _, err := r.RunCtx(ctx, quickPoints(1)); err != nil {
		t.Fatal(err)
	}

	// The run itself can finish before the sampler's first tick; the
	// series appears within a few cadences.
	var series []struct {
		Name   string `json:"name"`
		Values []any  `json:"values"`
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + o.DebugServer().Addr() + "/debug/ts?name=sweep.points.done")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			err := json.NewDecoder(resp.Body).Decode(&series)
			resp.Body.Close() //nolint:errcheck // test scrape
			if err != nil {
				t.Fatalf("/debug/ts malformed: %v", err)
			}
			break
		}
		resp.Body.Close() //nolint:errcheck // test scrape
		if time.Now().After(deadline) {
			t.Fatalf("/debug/ts never served the series: last status %d", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(series) != 1 || series[0].Name != "sweep.points.done" || len(series[0].Values) == 0 {
		t.Fatalf("/debug/ts series shape wrong: %+v", series)
	}

	cleanup()
	raw, err := os.ReadFile(ledgerOut)
	if err != nil {
		t.Fatalf("-ledger-out not written: %v", err)
	}
	var led RunLedger
	if err := json.Unmarshal(raw, &led); err != nil {
		t.Fatalf("ledger artifact unparseable: %v", err)
	}
	if !led.Reconciled {
		t.Fatalf("ledger artifact not reconciled: %s", led.Note)
	}
	if led.Points.Done != 3 || len(led.Rows) != 3 {
		t.Fatalf("ledger artifact content wrong: %+v rows %d", led.Points, len(led.Rows))
	}
}

// TestApplyTSIntervalRequiresDebugAddr: sampling history no endpoint
// will ever serve is a misconfiguration, not a silent no-op.
func TestApplyTSIntervalRequiresDebugAddr(t *testing.T) {
	o := &RunOptions{TSInterval: time.Second}
	if _, _, err := o.Apply(&Runner{}); err == nil || !strings.Contains(err.Error(), "-debug-addr") {
		t.Fatalf("want refusal naming -debug-addr, got %v", err)
	}
}

// TestApplyTraceAndDriftWiring covers the distributional surface: live
// histograms behind /debug/hist and wait.* gauges, trace sampling with
// the -trace-out dump, the drift monitor's registration, and the
// /debug/trace endpoint — all driven through Apply the way a binary
// would.
func TestApplyTraceAndDriftWiring(t *testing.T) {
	traceOut := filepath.Join(t.TempDir(), "spans.jsonl")
	o := &RunOptions{
		DebugAddr: "127.0.0.1:0",
		TraceOut:  traceOut, TraceSample: 4,
		DriftCheck: true,
	}
	r := &Runner{RootSeed: 11}
	ctx, cleanup, err := o.Apply(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Probe == nil || r.Probe.Hists == nil || r.Probe.Tracer == nil || r.Drift == nil {
		t.Fatalf("Apply wiring incomplete: probe %v drift %v", r.Probe, r.Drift)
	}
	pts := []Point{{Label: "pt", Cfg: quickPoints(1)[0].Cfg}}
	if _, err := r.RunCtx(ctx, pts); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + o.DebugServer().Addr() + path)
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
	var hist struct {
		Total struct {
			Count int64 `json:"count"`
		} `json:"total"`
		Stages []json.RawMessage `json:"stages"`
	}
	if err := json.Unmarshal([]byte(get("/debug/hist")), &hist); err != nil {
		t.Fatalf("/debug/hist malformed: %v", err)
	}
	if hist.Total.Count == 0 || len(hist.Stages) == 0 {
		t.Fatalf("/debug/hist empty after a run: %+v", hist)
	}
	if !strings.Contains(get("/metrics"), "\nbanyan_wait_total_p99 ") {
		t.Fatal("/metrics missing wait quantile gauges")
	}
	if !strings.Contains(get("/metrics"), "\nbanyan_drift_points_checked 1\n") {
		t.Fatal("/metrics missing drift counters")
	}
	if !strings.Contains(get("/metrics"), `banyan_wait_cycles_bucket{le="+Inf",stage="total"}`) {
		t.Fatal("/metrics missing the live wait_cycles histogram family")
	}
	if !strings.Contains(get("/debug/trace"), `"total_wait"`) {
		t.Fatal("/debug/trace serves no spans")
	}

	cleanup()
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("-trace-out not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("-trace-out file empty")
	}
	for _, line := range lines {
		var sp struct {
			Msg       int64 `json:"msg"`
			TotalWait int64 `json:"total_wait"`
			Stages    []struct {
				Wait int64 `json:"wait"`
			} `json:"stages"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("trace line unparseable: %v\n%s", err, line)
		}
		if sp.Msg%4 != 0 {
			t.Fatalf("sampled ordinal %d not a multiple of -trace-sample 4", sp.Msg)
		}
		var sum int64
		for _, st := range sp.Stages {
			sum += st.Wait
		}
		if sum != sp.TotalWait {
			t.Fatalf("span stage waits sum %d != total %d:\n%s", sum, sp.TotalWait, line)
		}
	}
}
