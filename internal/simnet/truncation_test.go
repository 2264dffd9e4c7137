package simnet

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"banyan/internal/obs"
	"banyan/internal/topology"
)

// unstableCfg is a configuration past the stability boundary
// (m·λ = 1.4 with infinite buffers) with a tight in-flight budget, so
// both engines must trip the saturation guard quickly.
func unstableCfg() *Config {
	return &Config{
		K: 2, Stages: 2, P: 0.7, Bulk: 2,
		Cycles: 2000, Warmup: 50, Seed: 42,
		AllowUnstable: true,
		MaxInFlight:   300,
	}
}

// TestValidateStability: m·λ ≥ 1 with infinite buffers is rejected with
// an error naming the offending parameters unless AllowUnstable is set;
// finite buffers never needed the opt-in.
func TestValidateStability(t *testing.T) {
	cfg := unstableCfg()
	cfg.AllowUnstable = false
	err := cfg.Validate()
	if err == nil {
		t.Fatal("unstable config accepted without AllowUnstable")
	}
	for _, frag := range []string{"1.4", "bulk 2", "p 0.7", "AllowUnstable"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("stability error %q does not name %q", err, frag)
		}
	}
	cfg.AllowUnstable = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("AllowUnstable opt-in rejected: %v", err)
	}
	cfg.AllowUnstable = false
	cfg.BufferCap = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("finite buffers must not need AllowUnstable: %v", err)
	}
}

// TestSaturationGuards: both engines terminate an unstable run with a
// Truncated/Unstable flagged result (nil error), deterministically.
func TestSaturationGuards(t *testing.T) {
	for name, run := range map[string]func(*Config) (*Result, error){
		"fast": Run,
		"literal": func(cfg *Config) (*Result, error) {
			src, err := NewTraceStream(cfg, 0)
			if err != nil {
				return nil, err
			}
			return RunEngine(context.Background(), Literal, cfg, src)
		},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := run(unstableCfg())
			if err != nil {
				t.Fatalf("saturation guard must truncate, not fail: %v", err)
			}
			if !res.Truncated || !res.Unstable {
				t.Fatalf("unstable run not flagged: truncated=%v unstable=%v", res.Truncated, res.Unstable)
			}
			if res.TruncatedAt <= 0 {
				t.Fatalf("TruncatedAt = %d, want the cycles actually simulated", res.TruncatedAt)
			}
			again, err := run(unstableCfg())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, again) {
				t.Fatal("truncated run is not deterministic")
			}
		})
	}
}

// TestDrainBudget: a tight DrainCycles budget truncates an unstable run
// even when the in-flight cap is generous.
func TestDrainBudget(t *testing.T) {
	cfg := unstableCfg()
	cfg.MaxInFlight = 1 << 30
	cfg.Cycles = 300
	cfg.DrainCycles = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || !res.Unstable {
		t.Fatal("drain budget did not flag the run")
	}
	if res.TruncatedAt <= int64(cfg.Warmup+cfg.Cycles) {
		t.Fatalf("truncated at %d, before the horizon", res.TruncatedAt)
	}
}

// TestCancellation: a cancelled context stops both engines at a cycle
// boundary with a Truncated partial result and the context's error.
func TestCancellation(t *testing.T) {
	cfg := &Config{K: 2, Stages: 3, P: 0.5, Cycles: 5000, Warmup: 100, Seed: 7}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, run := range map[string]func() (*Result, error){
		"fast": func() (*Result, error) { return RunEngine(ctx, Fast, cfg, nil) },
		"literal": func() (*Result, error) {
			src, err := NewTraceStream(cfg, 0)
			if err != nil {
				return nil, err
			}
			return RunEngine(ctx, Literal, cfg, src)
		},
	} {
		t.Run(name, func(t *testing.T) {
			res, err := run()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if res == nil || !res.Truncated {
				t.Fatalf("cancelled run must return a flagged partial result, got %+v", res)
			}
			if res.Unstable {
				t.Fatal("cancellation is not instability")
			}
		})
	}

	// An uncancelled run of the same config is untruncated and identical
	// to the plain API.
	res, err := RunEngine(context.Background(), Fast, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("healthy run flagged truncated")
	}
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Fatal("RunEngine(Background) differs from Run")
	}
}

// TestTracedScratchAfterTruncatedRun: a traced run that stops with
// spans still open — cancelled by its context, or truncated by the
// in-flight guard — leaves them in its arena's span slabs, and the next
// run on that arena starts clean: it shows exactly what the same run
// shows on a fresh arena, spans in tracer order included, so no stale
// span is closed into its tracer or inherited by a recycled slot. It
// covers every observed kernel configuration (one group and split, the
// graph wiring) but the two 4096-row ones, whose cancelled run would
// have to pass the first context poll at cycle 1024, and the cycle
// loop's literal and blocking-graph runs.
func TestTracedScratchAfterTruncatedRun(t *testing.T) {
	var cases []observedCase
	for _, c := range observedCases(t) {
		if c.cfg.Stages < 12 {
			cases = append(cases, c)
		}
	}
	cases = append(cases,
		observedCase{"literal", Literal, Config{K: 2, Stages: 5, P: 0.5, BufferCap: 4, Cycles: 1500, Warmup: 200, Seed: 28}, 0},
		observedCase{"graph-blocking", Graph, Config{K: 2, Stages: 4, P: 0.6, TrackSwitches: true, Cycles: 1500, Warmup: 200,
			Seed: 29, Topology: topology.Omega, StageBuffers: []int{2, 2, 2, 2}}, 0},
	)
	for _, c := range cases {
		fresh := observedDigestOn(t, c, new(arena))
		for _, stop := range []string{"cancel", "in-flight"} {
			t.Run(c.name+"/"+stop, func(t *testing.T) {
				a := new(arena)
				stopTraced(t, c, stop, a)
				open := 0
				for _, w := range append(a.probe.spans.sampled, a.probe.helperSpans.sampled...) {
					open += bits.OnesCount64(w)
				}
				if open == 0 {
					t.Fatal("the stopped run left no open span")
				}
				if got := observedDigestOn(t, c, a); got != fresh {
					t.Fatalf("after a stopped run with %d open spans: digest %s, fresh arena %s", open, got, fresh)
				}
			})
		}
	}
}

// stopTraced runs c traced on arena a and stops it early: by cancelling
// its context before the second context poll, or by an in-flight budget
// of half the population Little's law gives for unit service, with
// messages measured from the first cycle so that sampled ones are in
// flight when the budget trips.
func stopTraced(t *testing.T, c observedCase, stop string, a *arena) {
	t.Helper()
	cfg := c.cfg
	if c.engine == Graph && cfg.Topology == "" {
		cfg.Topology = topology.Omega
	}
	probe := obs.NewSimProbe()
	probe.Tracer = obs.NewTracer(4, 1<<10)
	cfg.Probe = probe
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var src ArrivalSource
	if stop == "cancel" {
		cfg.Cycles = 4 * (ctxCheckMask + 1)
		st, err := NewTraceStream(&cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		src = &stopper{ArrivalSource: st, at: ctxCheckMask / 2, cancel: cancel}
	} else {
		cfg.Warmup = 1
		rows, _, err := cfg.Rows()
		if err != nil {
			t.Fatal(err)
		}
		cfg.MaxInFlight = max(1, int(float64(rows)*cfg.P*float64(cfg.Stages)/2))
	}
	a.split = c.split
	res, err := runEngine(ctx, c.engine, &cfg, src, a)
	a.split = 0
	if res == nil || !res.Truncated {
		t.Fatalf("%s: the run was not stopped: err %v, result %+v", stop, err, res)
	}
}
