package vr

import (
	"testing"
	"time"

	"banyan/internal/simnet"
	"banyan/internal/stats"
)

// BenchmarkVREffectiveness measures what the variance-reduction layer
// buys on the workload it was built for: estimating the wait difference
// between two neighboring sweep points (k=4, 3 stages, ρ=0.90 vs 0.89,
// one step of a 0.01 load grid). The plain lane draws independent
// streams per point, the way a naive sweep would; the VR lane shares
// the per-replication seed across both points (CRN) on synchronized
// streams (simnet.Config.SyncDraws) and regression-adjusts the
// difference on the stage-1 wait contrast, whose exact mean Theorem 1
// supplies.
//
// Two custom metrics land in BENCH.json:
//
//	ess_speedup  var(plain Δ)/var(adjusted Δ) — deterministic given the
//	             fixed seeds, so it is gated
//	ess_per_sec  effective plain-MC replications per wall second the VR
//	             lane delivers (reps·speedup/elapsed); wall-clock-bound,
//	             so it is printed and never gated
func BenchmarkVREffectiveness(b *testing.B) {
	b.ReportAllocs()
	var speedup, essRate float64
	for i := 0; i < b.N; i++ {
		speedup, essRate = vrEffectiveness(b)
	}
	b.ReportMetric(speedup, "ess_speedup")
	b.ReportMetric(essRate, "ess_per_sec")
}

func vrEffectiveness(b *testing.B) (speedup, essRate float64) {
	const reps = 24
	hi := simnet.Config{K: 4, Stages: 3, P: 0.90, Cycles: 2000, Warmup: 200}
	lo := hi
	lo.P = 0.89
	run := func(cfg simnet.Config, seed uint64) *simnet.Result {
		cfg.Seed = seed
		r, err := simnet.Run(&cfg)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}

	// Plain lane: each grid point consumes its own stream family, so the
	// point estimates are independent and their variances add.
	var plain stats.Welford
	for i := 0; i < reps; i++ {
		rh := run(hi, simnet.SplitSeed(0xA11, uint64(i)))
		rl := run(lo, simnet.SplitSeed(0xB22, uint64(i)))
		plain.Add(rh.MeanTotalWait() - rl.MeanTotalWait())
	}

	// VR lane: replication i of both points shares one seed (CRN) on
	// synchronized streams, and the difference is adjusted on the
	// stage-1 wait contrast centered at its exact Theorem-1 mean.
	hi.SyncDraws, lo.SyncDraws = true, true
	muHi, ok := stage1MeanWait(&hi)
	if !ok {
		b.Fatal("stage-1 control ineligible for the hi config")
	}
	muLo, ok := stage1MeanWait(&lo)
	if !ok {
		b.Fatal("stage-1 control ineligible for the lo config")
	}
	ds := make([]float64, reps)
	cs := make([]float64, reps)
	start := time.Now()
	for i := 0; i < reps; i++ {
		seed := simnet.SplitSeed(0xC33, uint64(i))
		rh := run(hi, seed)
		rl := run(lo, seed)
		ds[i] = rh.MeanTotalWait() - rl.MeanTotalWait()
		cs[i] = (rh.StageWait[0].Mean() - muHi) - (rl.StageWait[0].Mean() - muLo)
	}
	elapsed := time.Since(start)

	// Single-control regression: β = S_dc/S_cc, a_i = d_i − β·c_i (the
	// control is already centered on its exact mean, which is zero).
	var dw, cw stats.Welford
	for i := range ds {
		dw.Add(ds[i])
		cw.Add(cs[i])
	}
	var sdc, scc float64
	for i := range ds {
		sdc += (ds[i] - dw.Mean()) * (cs[i] - cw.Mean())
		scc += (cs[i] - cw.Mean()) * (cs[i] - cw.Mean())
	}
	var adj stats.Welford
	beta := 0.0
	if scc > 0 {
		beta = sdc / scc
	}
	for i := range ds {
		adj.Add(ds[i] - beta*cs[i])
	}

	speedup = plain.SampleVariance() / adj.SampleVariance()
	essRate = float64(reps) * speedup / elapsed.Seconds()
	return speedup, essRate
}
