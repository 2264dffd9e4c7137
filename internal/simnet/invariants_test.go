package simnet

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"banyan/internal/traffic"
)

// randomConfig draws a random valid simulation configuration.
func randomConfig(rng *rand.Rand) Config {
	ks := []int{2, 2, 2, 4}
	k := ks[rng.Intn(len(ks))]
	stages := 2 + rng.Intn(4)
	var svc traffic.Service
	m := 1.0
	switch rng.Intn(4) {
	case 0:
		svc = traffic.UnitService()
	case 1:
		mm := 2 + rng.Intn(4)
		svc, _ = traffic.ConstService(mm)
		m = float64(mm)
	case 2:
		svc, _ = traffic.MultiService([]traffic.SizeMix{
			{Size: 1, Prob: 0.5}, {Size: 3, Prob: 0.5}})
		m = 2
	case 3:
		svc, _ = traffic.GeomService(0.5, 128)
		m = 2
	}
	bulk := 1
	if rng.Intn(3) == 0 {
		bulk = 2
	}
	// Keep ρ = p·b·m in (0.05, 0.85).
	rho := 0.05 + 0.8*rng.Float64()
	p := rho / (float64(bulk) * m)
	if p > 1 {
		p = 0.9 / (float64(bulk) * m)
	}
	cfg := Config{
		K: k, Stages: stages, P: p, Bulk: bulk, Service: svc,
		Cycles: 1500 + rng.Intn(2000), Warmup: 200, Seed: rng.Uint64(),
	}
	if k == 2 && bulk == 1 && rng.Intn(3) == 0 {
		cfg.Q = 0.5 * rng.Float64()
	}
	return cfg
}

// TestInvariantsFuzz drives both engines over randomized configurations
// and asserts the structural invariants that must hold for any valid run:
// message conservation, nonnegative waits, total = Σ per-stage means, and
// statistical agreement between the engines.
func TestInvariantsFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20260706))
	for trial := 0; trial < 12; trial++ {
		cfg := randomConfig(rng)
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

		// Conservation: every offered message passes through every
		// stage; measured counts match between engines.
		if fast.Offered != int64(tr.Len()) || lit.Offered != fast.Offered {
			t.Fatalf("trial %d: offered mismatch", trial)
		}
		if fast.Messages != lit.Messages {
			t.Fatalf("trial %d: measured mismatch %d vs %d", trial, fast.Messages, lit.Messages)
		}
		for s := range fast.StageWait {
			if fast.StageWait[s].N() != fast.Messages {
				t.Fatalf("trial %d: stage %d observed %d of %d messages",
					trial, s+1, fast.StageWait[s].N(), fast.Messages)
			}
		}
		// Total wait histogram covers exactly the measured messages.
		if fast.TotalWait.N() != fast.Messages {
			t.Fatalf("trial %d: histogram N %d", trial, fast.TotalWait.N())
		}
		// Total = Σ per-stage means.
		sum := 0.0
		for s := range fast.StageWait {
			sum += fast.StageWait[s].Mean()
		}
		if math.Abs(sum-fast.MeanTotalWait()) > 1e-9*(1+sum) {
			t.Fatalf("trial %d: total %g != Σ stages %g", trial, fast.MeanTotalWait(), sum)
		}
		// Engine agreement (generous: short runs).
		d := math.Abs(fast.MeanTotalWait() - lit.MeanTotalWait())
		if d > 0.08*(1+fast.MeanTotalWait()) {
			t.Fatalf("trial %d: engines disagree: %g vs %g (cfg %+v)",
				trial, fast.MeanTotalWait(), lit.MeanTotalWait(), cfg)
		}
	}
}

// TestFIFOPerPortInvariant replays a small trace by hand and checks the
// fast engine's FIFO/service-spacing guarantees directly: service starts
// at one port never overlap and happen in arrival order.
func TestFIFOPerPortInvariant(t *testing.T) {
	cfg := Config{K: 2, Stages: 1, P: 0.9, Service: mustConstSvc(t, 3), Cycles: 300, Warmup: 0, Seed: 8, BufferCap: 0}
	// ρ = 2.7 would be unstable; use the literal engine's ability to…
	// actually keep it stable: lower p.
	cfg.P = 0.3
	tr, err := GenerateTrace(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEngine(context.Background(), Fast, &cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	// Replay the engine's defining recurrence independently (trace
	// order; the fast engine shuffles intra-cycle ties, but the SUM of
	// waits within a tie group is order-invariant — the backlog each
	// message adds is fixed — so the mean must agree exactly).
	free := make(map[int]int)
	meanW := 0.0
	for i := 0; i < tr.Len(); i++ {
		port := int(tr.NextRow(tr.In[i], tr.Digit(i, 1)))
		s := int(tr.T[i])
		if f, ok := free[port]; ok && f > s {
			s = f
		}
		free[port] = s + int(tr.Svc[i])
		meanW += float64(s - int(tr.T[i]))
	}
	meanW /= float64(tr.Len())
	if math.Abs(meanW-res.StageWait[0].Mean()) > 1e-9*(1+meanW) {
		t.Fatalf("replay mean %g vs engine %g", meanW, res.StageWait[0].Mean())
	}
}

// autocorr returns the lag-l autocorrelation of a series.
func autocorr(x []float64, l int) float64 {
	n := len(x)
	mean := 0.0
	for _, v := range x {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i+l < n; i++ {
		num += (x[i] - mean) * (x[i+l] - mean)
	}
	for _, v := range x {
		den += (v - mean) * (v - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func mustConstSvc(t *testing.T, m int) traffic.Service {
	t.Helper()
	s, err := traffic.ConstService(m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBurstTraceStatistics checks the Markov-modulated source hits its
// target mean rate and produces visibly burstier arrivals than i.i.d.
func TestBurstTraceStatistics(t *testing.T) {
	cfg := &Config{
		K: 2, Stages: 3, P: 0.3, Cycles: 30000, Warmup: 0, Seed: 12,
		Burst: &BurstParams{POnRate: 0.1, POffRate: 0.1},
	}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(tr.Len()) / (float64(tr.Rows) * float64(tr.Horizon))
	if math.Abs(rate-0.3) > 0.015 {
		t.Fatalf("bursty mean rate %g, want 0.3", rate)
	}
	// Burstiness lives in the autocorrelation of per-cycle counts (the
	// marginal variance of a Bernoulli stream is fixed by its mean): an
	// i.i.d. source has lag-1 autocorrelation ≈ 0, a Markov-modulated
	// one is strongly positive (≈ (1-POnRate-POffRate)·pOn²·… > 0.2
	// here).
	perCycle := make([]float64, tr.Horizon)
	for i := 0; i < tr.Len(); i++ {
		perCycle[tr.T[i]]++
	}
	lag1 := autocorr(perCycle, 1)
	if lag1 < 0.2 {
		t.Fatalf("bursty lag-1 autocorrelation %g too small", lag1)
	}
	// The i.i.d. control stays near zero.
	cfgIID := *cfg
	cfgIID.Burst = nil
	trIID, err := GenerateTrace(&cfgIID)
	if err != nil {
		t.Fatal(err)
	}
	perCycleIID := make([]float64, trIID.Horizon)
	for i := 0; i < trIID.Len(); i++ {
		perCycleIID[trIID.T[i]]++
	}
	if l := autocorr(perCycleIID, 1); math.Abs(l) > 0.05 {
		t.Fatalf("i.i.d. lag-1 autocorrelation %g not near zero", l)
	}
	// Unreachable rate rejected.
	bad := &Config{K: 2, Stages: 3, P: 0.9, Cycles: 100,
		Burst: &BurstParams{POnRate: 0.1, POffRate: 0.9}}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected unreachable-rate error")
	}
	badRates := &Config{K: 2, Stages: 3, P: 0.1, Cycles: 100,
		Burst: &BurstParams{POnRate: 0, POffRate: 0.5}}
	if err := badRates.Validate(); err == nil {
		t.Fatal("expected rate-range error")
	}
}
