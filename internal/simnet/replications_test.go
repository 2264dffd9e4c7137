package simnet

import (
	"context"
	"math"
	"testing"
)

// TestAggregate pools replications run at split seeds and checks every
// read-out of the pooled summary: the Student-t intervals, the
// per-stage means and the merged histogram.
func TestAggregate(t *testing.T) {
	base := Config{K: 2, Stages: 4, P: 0.5, Cycles: 3000, Warmup: 300}
	runs := make([]*Result, 8)
	for i := range runs {
		cfg := base
		cfg.Seed = SplitSeed(101, uint64(i))
		res, err := Run(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	rep := Aggregate(runs, base.Stages)
	if rep.Replications() != 8 {
		t.Fatalf("replications %d", rep.Replications())
	}
	if runs[0].MeanTotalWait() == runs[1].MeanTotalWait() && runs[1].MeanTotalWait() == runs[2].MeanTotalWait() {
		t.Fatal("replications identical — seed splitting failed")
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
