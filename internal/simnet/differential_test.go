package simnet

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// differentialConfig extends randomConfig with the arrival/service
// variants the differential harness must cover: bursty sources and
// per-stage service resampling.
func differentialConfig(rng *rand.Rand) Config {
	cfg := randomConfig(rng)
	if cfg.Q == 0 && rng.Intn(4) == 0 {
		cfg.Burst = &BurstParams{
			POnRate:  0.05 + 0.3*rng.Float64(),
			POffRate: 0.05 + 0.3*rng.Float64(),
		}
		// The target rate is only reachable while ON: p ≤ ON fraction.
		if frac := cfg.Burst.onFraction(); cfg.P > 0.9*frac {
			cfg.P = 0.9 * frac
		}
	}
	if rng.Intn(4) == 0 {
		cfg.ResampleService = true
	}
	// More samples than the invariants fuzz: the harness asserts
	// per-stage moments, which need tighter Monte-Carlo error.
	cfg.Cycles = 6000 + rng.Intn(4000)
	return cfg
}

// TestDifferentialEngines is the property-based cross-validation
// harness: randomized bounded configurations drive the fast and literal
// engines from one identical trace (BufferCap = 0, where both model the
// same system) and every per-stage mean and variance must agree within
// a few standard errors. The two engines share no scheduling code — the
// fast engine is message-driven, the literal engine cycle-driven — so
// agreement here is evidence both implement the model of Section II.
func TestDifferentialEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is slow")
	}
	rng := rand.New(rand.NewSource(20260805))
	for trial := 0; trial < 10; trial++ {
		cfg := differentialConfig(rng)
		tr, err := GenerateTrace(&cfg)
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", trial, cfg, err)
		}
		fast, err := RunEngine(context.Background(), Fast, &cfg, tr.Source())
		if err != nil {
			t.Fatalf("trial %d: fast: %v", trial, err)
		}
		lit, err := RunEngine(context.Background(), Literal, &cfg, tr.Source())
		if err != nil {
			t.Fatalf("trial %d: literal: %v", trial, err)
		}
		if fast.Messages != lit.Messages {
			t.Fatalf("trial %d: measured counts differ: %d vs %d", trial, fast.Messages, lit.Messages)
		}
		n := float64(fast.Messages)
		for s := range fast.StageWait {
			fm, lm := fast.StageWait[s].Mean(), lit.StageWait[s].Mean()
			fv, lv := fast.StageWait[s].Variance(), lit.StageWait[s].Variance()
			// Mean tolerance: a multiple of the standard error plus a
			// small absolute floor (waits at one port are correlated
			// across messages, inflating the effective error).
			se := math.Sqrt(fv / n)
			if tol := 8*se + 0.01*(1+fm); math.Abs(fm-lm) > tol {
				t.Errorf("trial %d stage %d: mean %g vs %g exceeds tol %g (cfg %+v)",
					trial, s+1, fm, lm, tol, cfg)
			}
			// Variance tolerance: relative, looser — fourth-moment
			// estimates converge slowly for skewed waits.
			if tol := 0.2 * (1 + fv); math.Abs(fv-lv) > tol {
				t.Errorf("trial %d stage %d: variance %g vs %g exceeds tol %g (cfg %+v)",
					trial, s+1, fv, lv, tol, cfg)
			}
		}

		// Streaming vs. materialized trace equivalence at this seed and
		// an arbitrary block size: the chunked generator must reproduce
		// the materialized schedule byte for byte.
		bc := 1 + rng.Intn(300)
		got := collect(t, &cfg, bc)
		sameTrace(t, got, tr, "streamed trace")
	}
}
