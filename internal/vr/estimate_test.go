package vr

import (
	"math"
	"testing"

	"banyan/internal/core"
	"banyan/internal/simnet"
	"banyan/internal/traffic"
)

// runReps produces replication results with the plan's seed derivation,
// the way the sweep runner does.
func runReps(t testing.TB, p *Plan, cfg *simnet.Config, reps int) []*simnet.Result {
	t.Helper()
	out := make([]*simnet.Result, reps)
	for i := 0; i < reps; i++ {
		c := *cfg
		c.Seed = p.RepSeed(cfg.Seed, cfg.Seed, i)
		res, err := simnet.Run(&c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res
	}
	return out
}

// TestEstimatePlainMatchesWelford: with everything off, the estimate is
// the plain across-replication mean with a Student-t interval.
func TestEstimatePlainMatchesWelford(t *testing.T) {
	cfg := &simnet.Config{K: 2, Stages: 3, P: 0.5, Cycles: 1500, Warmup: 200, Seed: 11}
	var p *Plan
	runs := runReps(t, p, cfg, 6)
	est := p.Estimate(cfg, runs)
	if est.Reps != 6 {
		t.Fatalf("reps = %d, want 6", est.Reps)
	}
	agg := simnet.Aggregate(runs, cfg.Stages)
	if est.Mean != agg.MeanTotalWait() {
		t.Errorf("plain estimate %g != aggregate mean %g", est.Mean, agg.MeanTotalWait())
	}
	if est.HalfWidth != agg.MeanTotalWaitCI() {
		t.Errorf("plain half-width %g != aggregate CI %g", est.HalfWidth, agg.MeanTotalWaitCI())
	}
	if len(est.Controls) != 0 || est.VarReduction != 1 {
		t.Errorf("plain estimate claims adjustment: %+v", est)
	}
}

// TestEstimateControlVariates: on an eligible configuration the
// CV-adjusted estimate must stay consistent with the truth (the exact
// stage-1 mean wait for a 1-stage network) while cutting the variance,
// and must report what it fitted.
func TestEstimateControlVariates(t *testing.T) {
	cfg := &simnet.Config{K: 4, Stages: 1, P: 0.9, Cycles: 4000, Warmup: 400, Seed: 23}
	arr, err := traffic.Uniform(4, 4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	exact := core.MustNew(arr, traffic.UnitService()).MeanWait()

	p := &Plan{ControlVariates: true}
	runs := runReps(t, p, cfg, 24)
	est := p.Estimate(cfg, runs)
	if len(est.Controls) == 0 || len(est.Beta) != len(est.Controls) {
		t.Fatalf("no controls fitted: %+v", est)
	}
	if est.AdjVar > est.RawVar {
		t.Errorf("adjustment increased variance: %g > %g", est.AdjVar, est.RawVar)
	}
	if est.VarReduction < 1 || est.ESS < float64(est.Reps) {
		t.Errorf("VarReduction %g / ESS %g inconsistent", est.VarReduction, est.ESS)
	}
	// The adjusted estimate must cover the exact value. The interval is
	// tight after adjustment, so allow a few half-widths.
	if math.Abs(est.Mean-exact) > 4*est.HalfWidth+1e-9 {
		t.Errorf("adjusted mean %.6g vs exact %.6g exceeds 4·hw = %.3g",
			est.Mean, exact, 4*est.HalfWidth)
	}
	// And the plain estimate must also cover it — both are unbiased.
	var plain *Plan
	pest := plain.Estimate(cfg, runs)
	if math.Abs(pest.Mean-exact) > 4*pest.HalfWidth+1e-9 {
		t.Errorf("plain mean %.6g vs exact %.6g exceeds 4·hw = %.3g",
			pest.Mean, exact, 4*pest.HalfWidth)
	}
}

// TestEstimateDegradesSafely: ineligible configurations and degenerate
// result sets must fall back to the plain estimate, never fail.
func TestEstimateDegradesSafely(t *testing.T) {
	p := &Plan{ControlVariates: true}

	// Hot-module traffic: stage-1 control ineligible, messages control
	// still applies.
	hot := &simnet.Config{K: 2, Stages: 2, P: 0.4, HotModule: 0.2, Cycles: 1000, Warmup: 100, Seed: 5}
	runs := runReps(t, p, hot, 8)
	est := p.Estimate(hot, runs)
	for _, c := range est.Controls {
		if c == "stage1-wait" {
			t.Error("fitted the stage-1 control on hot-module traffic")
		}
	}

	// Too few units for a regression: plain fallback.
	cfg := &simnet.Config{K: 2, Stages: 2, P: 0.5, Cycles: 800, Warmup: 100, Seed: 6}
	short := runReps(t, p, cfg, 3)
	est = p.Estimate(cfg, short)
	if len(est.Controls) != 0 {
		t.Errorf("fitted %v from 3 units", est.Controls)
	}
	if est.Mean != est.RawMean {
		t.Error("fallback estimate is not the raw mean")
	}

	// Empty result set.
	empty := p.Estimate(cfg, nil)
	if !math.IsInf(empty.HalfWidth, 1) || empty.Reps != 0 {
		t.Errorf("empty estimate: %+v", empty)
	}
}

// TestEstimateDeterministic: the estimate is a pure function of the
// results — recomputing from the same slice is bit-identical, the
// cache/journal-resume requirement.
func TestEstimateDeterministic(t *testing.T) {
	cfg := &simnet.Config{K: 2, Stages: 2, P: 0.6, Cycles: 1200, Warmup: 150, Seed: 17}
	p := &Plan{ControlVariates: true}
	runs := runReps(t, p, cfg, 12)
	a, b := p.Estimate(cfg, runs), p.Estimate(cfg, runs)
	if a.Mean != b.Mean || a.HalfWidth != b.HalfWidth || a.AdjVar != b.AdjVar {
		t.Fatalf("estimate not deterministic: %+v vs %+v", a, b)
	}
}
