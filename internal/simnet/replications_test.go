package simnet

import (
	"context"
	"math"
	"testing"
)

func TestRunReplications(t *testing.T) {
	cfg := &Config{K: 2, Stages: 4, P: 0.5, Cycles: 3000, Warmup: 300, Seed: 101}
	rep, err := RunReplications(cfg, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replications() != 8 {
		t.Fatalf("replications %d", rep.Replications())
	}
	// CI covers the prediction-quality answer: single-run estimate within
	// a few half-widths of the aggregate.
	hw := rep.MeanTotalWaitCI()
	if hw <= 0 || math.IsInf(hw, 1) {
		t.Fatalf("half-width %g", hw)
	}
	single := rep.Runs[0].MeanTotalWait()
	if math.Abs(single-rep.MeanTotalWait()) > 10*hw+0.05 {
		t.Fatalf("replication dispersion implausible: %g vs %g ± %g", single, rep.MeanTotalWait(), hw)
	}
	// Stage CI available.
	m, shw := rep.StageMeanWait(1)
	if m <= 0 || shw <= 0 {
		t.Fatalf("stage CI: %g ± %g", m, shw)
	}
	// Merged histogram pools all runs.
	var total int64
	for _, r := range rep.Runs {
		total += r.TotalWait.N()
	}
	if rep.Merged.N() != total {
		t.Fatalf("merged N %d != %d", rep.Merged.N(), total)
	}
	// Variance aggregate is positive with finite CI.
	if rep.VarTotalWait() <= 0 || math.IsInf(rep.VarTotalWaitCI(), 1) {
		t.Fatal("variance aggregate broken")
	}
}

func TestRunReplicationsSeedsDiffer(t *testing.T) {
	cfg := &Config{K: 2, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 100, Seed: 55}
	rep, err := RunReplications(cfg, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs[0].MeanTotalWait() == rep.Runs[1].MeanTotalWait() &&
		rep.Runs[1].MeanTotalWait() == rep.Runs[2].MeanTotalWait() {
		t.Fatal("replications identical — seed splitting failed")
	}
}

func TestRunReplicationsDeterministic(t *testing.T) {
	cfg := &Config{K: 2, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 100, Seed: 55}
	a, err := RunReplications(cfg, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReplications(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism must not change results.
	if a.MeanTotalWait() != b.MeanTotalWait() || a.VarTotalWait() != b.VarTotalWait() {
		t.Fatal("parallelism changed the aggregate")
	}
}

func TestRunReplicationsValidation(t *testing.T) {
	cfg := &Config{K: 2, Stages: 3, P: 0.4, Cycles: 1000, Seed: 1}
	if _, err := RunReplications(cfg, 0, 1); err == nil {
		t.Fatal("expected replication-count error")
	}
	bad := &Config{K: 1, Stages: 3, P: 0.4, Cycles: 1000}
	if _, err := RunReplications(bad, 2, 1); err == nil {
		t.Fatal("expected config error")
	}
}

func TestSplitSeed(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 100; i++ {
		s := SplitSeed(42, i)
		if seen[s] {
			t.Fatal("seed collision")
		}
		seen[s] = true
	}
}

func TestOccupancyTracking(t *testing.T) {
	cfg := &Config{K: 2, Stages: 4, P: 0.6, Cycles: 6000, Warmup: 600, Seed: 7, TrackOccupancy: true}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEngine(context.Background(), Literal, cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QueueDepth) != 4 || len(res.MaxQueueDepth) != 4 {
		t.Fatal("occupancy stats missing")
	}
	for s := 0; s < 4; s++ {
		mean := res.QueueDepth[s].Mean()
		// Time-averaged messages present ≥ utilization ρ = 0.6 (server
		// occupancy alone) and bounded by a small multiple at this load.
		if mean < 0.5 || mean > 3 {
			t.Fatalf("stage %d occupancy %g implausible", s+1, mean)
		}
		if res.MaxQueueDepth[s] < 2 {
			t.Fatalf("stage %d max depth %d implausible", s+1, res.MaxQueueDepth[s])
		}
		// Little's law sanity: mean queue (excluding server) ≈ λ·E[w].
		waiting := mean - 0.6
		expect := 0.6 * res.StageWait[s].Mean()
		if math.Abs(waiting-expect) > 0.15*(1+expect) {
			t.Fatalf("stage %d Little mismatch: %g vs %g", s+1, waiting, expect)
		}
	}
	// Occupancy off → no stats.
	cfg2 := *cfg
	cfg2.TrackOccupancy = false
	res2, err := RunEngine(context.Background(), Literal, &cfg2, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if res2.QueueDepth != nil {
		t.Fatal("occupancy tracked when disabled")
	}
}
