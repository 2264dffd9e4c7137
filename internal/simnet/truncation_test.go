package simnet

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
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
