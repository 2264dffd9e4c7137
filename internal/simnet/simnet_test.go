package simnet

import (
	"context"
	"fmt"
	"math"
	"testing"

	"banyan/internal/core"
	"banyan/internal/traffic"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.6g, want %.6g (tol %g)", msg, got, want, tol)
	}
}

func TestConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{K: 2, Stages: 4, P: 0.5, Cycles: 100}
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"radix", func(c *Config) { c.K = 1 }},
		{"stages", func(c *Config) { c.Stages = 0 }},
		{"p low", func(c *Config) { c.P = -0.1 }},
		{"p high", func(c *Config) { c.P = 1.1 }},
		{"q", func(c *Config) { c.Q = 2 }},
		{"cycles", func(c *Config) { c.Cycles = 0 }},
		{"warmup", func(c *Config) { c.Warmup = -1 }},
		{"buffer", func(c *Config) { c.BufferCap = -2 }},
		{"unstable", func(c *Config) { c.P = 0.5; c.Bulk = 4 }},
		{"dest space", func(c *Config) { c.Stages = 40 }},
		{"wrapped q", func(c *Config) { c.Stages = 14; c.Q = 0.5 }},
		{"horizon overflow", func(c *Config) { c.Cycles = 1 << 31; c.Warmup = 0 }},
		{"horizon overflow split", func(c *Config) { c.Cycles = 1 << 30; c.Warmup = 1 << 30 }},
	}
	for _, cse := range cases {
		cfg := base()
		cse.mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", cse.name)
		}
	}
	cfg := base()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}

func TestTraceStatistics(t *testing.T) {
	cfg := &Config{K: 2, Stages: 6, P: 0.3, Cycles: 4000, Warmup: 100, Seed: 5}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rows != 64 || tr.Wrapped {
		t.Fatalf("rows=%d wrapped=%v", tr.Rows, tr.Wrapped)
	}
	// Arrival rate ≈ p per input per cycle.
	rate := float64(tr.Len()) / (float64(tr.Rows) * float64(tr.Horizon))
	almost(t, rate, 0.3, 0.01, "arrival rate")
	// Destinations roughly uniform: mean dest ≈ (N-1)/2.
	var sum float64
	for _, d := range tr.Dest {
		sum += float64(d)
	}
	almost(t, sum/float64(tr.Len()), 31.5, 1.0, "dest uniformity")
	// Arrival times nondecreasing, measurement flags match warmup.
	for i := 1; i < tr.Len(); i++ {
		if tr.T[i] < tr.T[i-1] {
			t.Fatal("trace not time-ordered")
		}
	}
	for i := 0; i < tr.Len(); i++ {
		if tr.Meas[i] != (tr.T[i] >= int32(cfg.Warmup)) {
			t.Fatal("measurement flag wrong")
		}
	}
}

func TestTraceBulkAndService(t *testing.T) {
	svc, err := traffic.MultiService([]traffic.SizeMix{{Size: 2, Prob: 0.5}, {Size: 6, Prob: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{K: 2, Stages: 4, P: 0.05, Bulk: 3, Service: svc, Cycles: 3000, Seed: 9}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len()%3 != 0 {
		t.Fatalf("bulk trace length %d not a multiple of 3", tr.Len())
	}
	// Batch members share time, destination and service.
	for i := 0; i < tr.Len(); i += 3 {
		if tr.Dest[i] != tr.Dest[i+1] || tr.Dest[i] != tr.Dest[i+2] ||
			tr.T[i] != tr.T[i+2] || tr.Svc[i] != tr.Svc[i+2] {
			t.Fatalf("batch %d not coherent", i/3)
		}
	}
	// Service values are only 2 or 6, roughly half each.
	n2 := 0
	for _, s := range tr.Svc {
		switch s {
		case 2:
			n2++
		case 6:
		default:
			t.Fatalf("unexpected service %d", s)
		}
	}
	frac := float64(n2) / float64(tr.Len())
	almost(t, frac, 0.5, 0.05, "service mix fraction")
}

// TestFirstStageMatchesExact is the central validation: simulated stage-1
// waiting-time mean and variance equal the Theorem 1 values, across the
// paper's traffic classes.
func TestFirstStageMatchesExact(t *testing.T) {
	mk := func(name string, cfg Config, arr traffic.Arrivals, svc traffic.Service) {
		t.Run(name, func(t *testing.T) {
			cfg.Cycles = 30000
			cfg.Warmup = 2000
			cfg.Seed = 21
			res, err := Run(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			an, err := core.New(arr, svc)
			if err != nil {
				t.Fatal(err)
			}
			w := res.StageWait[0]
			se := 4*w.StdDev()/math.Sqrt(float64(w.N())) + 0.01*an.MeanWait()
			almost(t, w.Mean(), an.MeanWait(), se+1e-3, "stage-1 mean")
			almost(t, w.Variance(), an.VarWait(), 0.03*(1+an.VarWait()), "stage-1 variance")
		})
	}

	arrU, _ := traffic.Uniform(2, 2, 0.5)
	mk("uniform", Config{K: 2, Stages: 4, P: 0.5}, arrU, traffic.UnitService())

	arrU8, _ := traffic.Uniform(8, 8, 0.75)
	mk("k=8", Config{K: 8, Stages: 2, P: 0.75}, arrU8, traffic.UnitService())

	arrB, _ := traffic.Bulk(2, 2, 0.15, 3)
	mk("bulk", Config{K: 2, Stages: 4, P: 0.15, Bulk: 3}, arrB, traffic.UnitService())

	svc4, _ := traffic.ConstService(4)
	arrM, _ := traffic.Uniform(2, 2, 0.125)
	mk("m=4", Config{K: 2, Stages: 4, P: 0.125, Service: svc4}, arrM, svc4)

	arrQ, _ := traffic.NonuniformExclusive(2, 0.5, 0.4, 1)
	mk("hotspot", Config{K: 2, Stages: 6, P: 0.5, Q: 0.4}, arrQ, traffic.UnitService())

	geo, _ := traffic.GeomService(0.5, 512)
	arrG, _ := traffic.Uniform(2, 2, 0.25)
	mk("geometric", Config{K: 2, Stages: 4, P: 0.25, Service: geo}, arrG, geo)

	multi, _ := traffic.MultiService([]traffic.SizeMix{{Size: 4, Prob: 0.75}, {Size: 8, Prob: 0.25}})
	arrMS, _ := traffic.Uniform(2, 2, 0.08)
	mk("multi-size", Config{K: 2, Stages: 4, P: 0.08, Service: multi}, arrMS, multi)
}

// TestEnginesAgree drives the fast and literal engines from one trace and
// requires statistically indistinguishable results.
func TestEnginesAgree(t *testing.T) {
	svc, _ := traffic.ConstService(2)
	cfg := &Config{K: 2, Stages: 5, P: 0.2, Service: svc, Cycles: 8000, Warmup: 500, Seed: 33}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunEngine(context.Background(), Fast, cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	lit, err := RunEngine(context.Background(), Literal, cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Messages != lit.Messages {
		t.Fatalf("message counts differ: %d vs %d", fast.Messages, lit.Messages)
	}
	for s := range fast.StageWait {
		fm, lm := fast.StageWait[s].Mean(), lit.StageWait[s].Mean()
		almost(t, lm, fm, 0.02*(1+fm), "stage mean agreement")
		fv, lv := fast.StageWait[s].Variance(), lit.StageWait[s].Variance()
		almost(t, lv, fv, 0.05*(1+fv), "stage variance agreement")
	}
	almost(t, lit.MeanTotalWait(), fast.MeanTotalWait(), 0.02*(1+fast.MeanTotalWait()), "total mean agreement")
}

func TestDeterminism(t *testing.T) {
	cfg := &Config{K: 2, Stages: 4, P: 0.5, Cycles: 2000, Warmup: 100, Seed: 77}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || a.MeanTotalWait() != b.MeanTotalWait() ||
		a.VarTotalWait() != b.VarTotalWait() {
		t.Fatal("same seed must reproduce identical results")
	}
	cfg2 := *cfg
	cfg2.Seed = 78
	c, err := Run(&cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if c.MeanTotalWait() == a.MeanTotalWait() && c.Messages == a.Messages {
		t.Fatal("different seeds produced identical results")
	}
}

func TestWrappedNetwork(t *testing.T) {
	// 14 stages of k=2 exceeds MaxRows=4096 → wrapped shuffle. Uniform
	// stage statistics should match the unwrapped behaviour (stage-1
	// exact, later stages ≈ w∞).
	cfg := &Config{K: 2, Stages: 14, P: 0.5, Cycles: 4000, Warmup: 400, Seed: 3, MaxRows: 1024}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Wrapped || res.Rows != 1024 {
		t.Fatalf("rows=%d wrapped=%v", res.Rows, res.Wrapped)
	}
	almost(t, res.StageWait[0].Mean(), 0.25, 0.01, "wrapped stage-1 mean")
	almost(t, res.StageWait[13].Mean(), 0.30, 0.015, "wrapped deep-stage mean")
}

// TestRowsWrapsAtLargestPower: a network wider than MaxRows runs the
// largest power of k that fits, which for k = 3 is neither k^n nor the
// cap.
func TestRowsWrapsAtLargestPower(t *testing.T) {
	for _, c := range []struct {
		k, n, maxRows int
		rows          int
		wrapped       bool
	}{
		{3, 7, 0, 2187, false},
		{3, 8, 0, 2187, true},
		{2, 12, 0, 4096, false},
		{2, 13, 0, 4096, true},
		{8, 5, 0, 4096, true},
		{2, 14, 1024, 1024, true},
	} {
		cfg := Config{K: c.k, Stages: c.n, MaxRows: c.maxRows}
		rows, wrapped, err := cfg.Rows()
		if err != nil || rows != c.rows || wrapped != c.wrapped {
			t.Errorf("k=%d n=%d MaxRows=%d: Rows() = %d, %v, %v; want %d, %v",
				c.k, c.n, c.maxRows, rows, wrapped, err, c.rows, c.wrapped)
		}
	}
	if _, _, err := (&Config{K: 0, Stages: 3}).Rows(); err == nil {
		t.Error("Rows accepted radix 0")
	}
}

func TestStageCovTracking(t *testing.T) {
	cfg := &Config{K: 2, Stages: 5, P: 0.5, Cycles: 6000, Warmup: 500, Seed: 13, TrackStageWaits: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.StageCov == nil || res.StageCov.Dim() != 5 {
		t.Fatal("covariance matrix missing")
	}
	// Lag-1 correlation near the paper's ≈ 0.12, diagonal 1.
	almost(t, res.StageCov.Correlation(2, 2), 1, 1e-12, "diagonal")
	c12 := res.StageCov.Correlation(1, 2)
	if c12 < 0.08 || c12 > 0.16 {
		t.Fatalf("lag-1 correlation %g outside the Table VI band", c12)
	}
	// Lag-3 much smaller than lag-1.
	if res.StageCov.Correlation(1, 4) > c12/2 {
		t.Fatal("correlations do not decay")
	}
}

// TestStageCovMatchesStageWait: every engine's per-message covariance
// matrix sees the same per-stage waits as StageWait, even past the
// int16 range. A hot module at 0.6 saturates its output's tree, so the
// deeper stages wait tens of thousands of cycles; waits stored as int16
// wrapped, and StageCov.Mean(2) read 1053.7 against a true 56178.5.
// With infinite buffers every measured message finishes, so both
// accumulators hold the same values and differ only in summation order.
func TestStageCovMatchesStageWait(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.6, HotModule: 0.6, Cycles: 120000, Warmup: 100, Seed: 3,
		TrackStageWaits: true}
	for _, e := range []Engine{Fast, Reference, Literal, Graph} {
		t.Run(e.String(), func(t *testing.T) {
			cfg := base
			res, err := RunEngine(context.Background(), e, &cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("run truncated: the accumulators would cover different messages")
			}
			if m := res.StageWait[base.Stages-1].Mean(); m < 1<<15 {
				t.Fatalf("deepest stage waits %.1f on average, want past the int16 range", m)
			}
			for s := range res.StageWait {
				sw := &res.StageWait[s]
				relClose(t, res.StageCov.Mean(s), sw.Mean(), 1e-9, fmt.Sprintf("stage %d mean", s+1))
				relClose(t, res.StageCov.Variance(s), sw.Variance(), 1e-9, fmt.Sprintf("stage %d variance", s+1))
			}
		})
	}
}

// relClose fails unless got is within rel of want, relatively.
func relClose(t *testing.T, got, want, rel float64, what string) {
	t.Helper()
	if math.Abs(got-want) > rel*math.Abs(want) {
		t.Errorf("%s: got %.10g, want %.10g (relative tolerance %g)", what, got, want, rel)
	}
}

func TestFiniteBuffers(t *testing.T) {
	svc, _ := traffic.ConstService(2)
	cfg := &Config{K: 2, Stages: 4, P: 0.3, Service: svc, Cycles: 5000, Warmup: 200, Seed: 17, BufferCap: 1}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := RunEngine(context.Background(), Literal, cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if tight.Dropped == 0 {
		t.Fatal("capacity 1 at ρ=0.6 must drop messages")
	}
	// Large buffers ≈ infinite buffers.
	cfgBig := *cfg
	cfgBig.BufferCap = 10000
	big, err := RunEngine(context.Background(), Literal, &cfgBig, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if big.Dropped != 0 {
		t.Fatalf("huge buffers dropped %d", big.Dropped)
	}
	cfgInf := *cfg
	cfgInf.BufferCap = 0
	inf, err := RunEngine(context.Background(), Literal, &cfgInf, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	almost(t, big.MeanTotalWait(), inf.MeanTotalWait(), 1e-12, "big buffer = infinite")
	// Drops reduce completed messages and the survivors wait less.
	if tight.Messages >= inf.Messages {
		t.Fatal("drops must reduce completions")
	}
	if tight.MeanTotalWait() >= inf.MeanTotalWait() {
		t.Fatal("survivors of a lossy network wait less on average")
	}
}

// TestFiniteBufferMatchesChain cross-validates the literal engine's
// finite-buffer behaviour against the exact Markov-chain analysis
// (core.FiniteQueue) on a single-stage network.
func TestFiniteBufferMatchesChain(t *testing.T) {
	for _, c := range []struct {
		p   float64
		cap int
	}{{0.8, 2}, {0.8, 4}, {0.5, 2}} {
		cfg := &Config{K: 2, Stages: 1, P: c.p, Cycles: 60000, Warmup: 2000, Seed: 91, BufferCap: c.cap}
		tr, err := GenerateTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunEngine(context.Background(), Literal, cfg, tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		arr, err := traffic.Uniform(2, 2, c.p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := core.NewFiniteQueue(arr, c.cap)
		if err != nil {
			t.Fatal(err)
		}
		simDrop := float64(res.Dropped) / float64(res.Offered)
		almost(t, simDrop, q.DropProb(), 0.10*q.DropProb()+2e-4, "drop probability vs chain")
		almost(t, res.StageWait[0].Mean(), q.MeanWait(), 0.05*(1+q.MeanWait()), "admitted wait vs chain")
	}
}

func TestOverloadWithDropsIsRunnable(t *testing.T) {
	// ρ > 1 is rejected with infinite buffers but fine with finite ones.
	svc, _ := traffic.ConstService(4)
	cfg := &Config{K: 2, Stages: 3, P: 0.5, Service: svc, Cycles: 2000, Seed: 2, BufferCap: 4}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEngine(context.Background(), Literal, cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("overload must drop")
	}
	frac := float64(res.Dropped) / float64(res.Offered)
	// Offered ρ = 2, so about half the traffic must be shed.
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("drop fraction %g implausible for ρ=2", frac)
	}
}

// TestHotModuleSaturation: hot messages queue increasingly along the
// tree to output 0; stage-1 hot waits match the exact HotModule law.
func TestHotModuleSaturation(t *testing.T) {
	cfg := &Config{K: 2, Stages: 6, P: 0.4, HotModule: 0.02, Cycles: 40000, Warmup: 4000, Seed: 46}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HotWait == nil {
		t.Fatal("hot-wait stats missing")
	}
	arr, err := traffic.HotModule(2, 0.4, 0.02, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.New(arr, traffic.UnitService())
	if err != nil {
		t.Fatal(err)
	}
	hot1 := res.HotWait[0]
	se := 4 * hot1.StdDev() / math.Sqrt(float64(hot1.N()))
	almost(t, hot1.Mean(), an.MeanWait(), se+0.02*(1+an.MeanWait()), "stage-1 hot wait vs exact")
	// Hot waits grow along the tree and exceed background at the end.
	last := cfg.Stages - 1
	if res.HotWait[last].Mean() <= 2*res.HotWait[0].Mean() {
		t.Fatal("hot waits did not build up along the tree")
	}
	if res.HotWait[last].Mean() <= 3*res.StageWait[last].Mean() {
		t.Fatalf("hot tail wait %g not far above background %g",
			res.HotWait[last].Mean(), res.StageWait[last].Mean())
	}
	// Uniform run leaves HotWait nil.
	cfg2 := &Config{K: 2, Stages: 3, P: 0.4, Cycles: 2000, Warmup: 100, Seed: 3}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.HotWait != nil {
		t.Fatal("HotWait populated without hot traffic")
	}
	// Q and HotModule are mutually exclusive.
	bad := &Config{K: 2, Stages: 3, P: 0.4, Q: 0.1, HotModule: 0.1, Cycles: 100}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected mutual-exclusion error")
	}
}

// TestResampleService: per-stage i.i.d. redraws keep the stage-1 law
// (same marginal) but break length persistence downstream.
func TestResampleService(t *testing.T) {
	geo, err := traffic.GeomService(0.5, 256)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{K: 2, Stages: 6, P: 0.2, Service: geo, Cycles: 30000, Warmup: 2000, Seed: 41}
	fixed := base
	res1, err := Run(&fixed)
	if err != nil {
		t.Fatal(err)
	}
	redraw := base
	redraw.ResampleService = true
	res2, err := Run(&redraw)
	if err != nil {
		t.Fatal(err)
	}
	// Stage-1 marginals agree with the exact analysis in both modes.
	arr, err := traffic.Uniform(2, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.New(arr, geo)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{res1, res2} {
		almost(t, res.StageWait[0].Mean(), an.MeanWait(), 0.03*(1+an.MeanWait()), "stage-1 mean")
	}
	// Deep stages behave differently: with persistent lengths the long
	// messages pace their paths (spacing effect lowers later-stage
	// waits); redrawn lengths restore collisions, so redraw ≥ fixed.
	d1 := res1.StageWait[5].Mean()
	d2 := res2.StageWait[5].Mean()
	if d2 <= d1 {
		t.Fatalf("expected resampled deep wait (%g) above fixed-length (%g)", d2, d1)
	}
	// Constant service: resampling is a no-op and must not consume
	// random numbers differently.
	cs, err := traffic.ConstService(3)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Config{K: 2, Stages: 3, P: 0.1, Service: cs, Cycles: 4000, Warmup: 200, Seed: 5}
	c2 := c1
	c2.ResampleService = true
	r1, err := Run(&c1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(&c2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MeanTotalWait() != r2.MeanTotalWait() {
		t.Fatal("resampling a constant law must be a bit-exact no-op")
	}
}

func TestNoMeasuredMessages(t *testing.T) {
	cfg := &Config{K: 2, Stages: 3, P: 0, Cycles: 10, Seed: 1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected no-measured-messages error")
	}
}

func TestTotalWaitIsSumOfStageWaits(t *testing.T) {
	cfg := &Config{K: 2, Stages: 6, P: 0.5, Cycles: 5000, Warmup: 500, Seed: 4}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range res.StageWait {
		sum += w.Mean()
	}
	almost(t, res.MeanTotalWait(), sum, 1e-9, "total = Σ per-stage means")
}
