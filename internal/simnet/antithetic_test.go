package simnet

import (
	"context"
	"math"
	"reflect"
	"testing"

	"banyan/internal/stats"
)

// TestAntitheticTraceMirrorsDest checks the mirror at the sharpest
// available level: with P = 1 every input fires every cycle, so the
// plain and antithetic schedules contain the same messages in the same
// order and the uniform destination draw is the only randomness left.
// The antithetic destination must be the exact lattice reflection
// destSpace-1-d of the plain one, message for message.
func TestAntitheticTraceMirrorsDest(t *testing.T) {
	cfg := Config{
		K: 2, Stages: 3, P: 1, Cycles: 200, Warmup: 10, Seed: 97,
		AllowUnstable: true, MaxInFlight: 1 << 20, DrainCycles: 1 << 20,
	}
	plain, err := GenerateTrace(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	acfg := cfg
	acfg.Antithetic = true
	anti, err := GenerateTrace(&acfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != anti.Len() {
		t.Fatalf("message counts differ: %d vs %d", plain.Len(), anti.Len())
	}
	destSpace := uint32(1)
	for i := 0; i < cfg.Stages; i++ {
		destSpace *= uint32(cfg.K)
	}
	for i := range plain.Dest {
		if plain.T[i] != anti.T[i] || plain.In[i] != anti.In[i] {
			t.Fatalf("message %d: schedule skeleton differs", i)
		}
		if anti.Dest[i] != destSpace-1-plain.Dest[i] {
			t.Fatalf("message %d: dest %d not the mirror of %d", i, anti.Dest[i], plain.Dest[i])
		}
	}
}

// TestAntitheticEnginesAgree pins the engine-equivalence contract under
// Antithetic: the mirror lives in the TraceStream, so the streamed fast
// engine and the materialized-trace fast engine must produce
// bit-identical Results at the same mirrored seed.
func TestAntitheticEnginesAgree(t *testing.T) {
	cfg := Config{
		K: 2, Stages: 3, P: 0.55, Cycles: 1200, Warmup: 150, Seed: 12345,
		Antithetic: true,
	}
	streamed, err := Run(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	material, err := RunEngine(context.Background(), Fast, &cfg, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, material) {
		t.Error("streamed and materialized runs diverge under Antithetic")
	}
	plainCfg := cfg
	plainCfg.Antithetic = false
	plainScalar, err := Run(&plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(streamed, plainScalar) {
		t.Error("mirrored run identical to plain run — mirror had no effect")
	}
}

// TestAntitheticUnbiased checks the mirrored schedule is distributed
// like an independent one: the mean total wait over mirrored
// replications must agree with the plain estimate within a joint
// confidence interval, and the pooled message rates must match closely.
func TestAntitheticUnbiased(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.6, Cycles: 3000, Warmup: 300, Seed: 7}
	const reps = 24
	var plainW, antiW stats.Welford
	var plainMsgs, antiMsgs int64
	for i := 0; i < reps; i++ {
		c := base
		c.Seed = SplitSeed(base.Seed, uint64(i))
		res, err := Run(&c)
		if err != nil {
			t.Fatal(err)
		}
		plainW.Add(res.MeanTotalWait())
		plainMsgs += res.Messages

		a := c
		a.Antithetic = true
		ares, err := Run(&a)
		if err != nil {
			t.Fatal(err)
		}
		antiW.Add(ares.MeanTotalWait())
		antiMsgs += ares.Messages
	}
	se := math.Sqrt(plainW.SampleVariance()/reps + antiW.SampleVariance()/reps)
	if diff := math.Abs(plainW.Mean() - antiW.Mean()); diff > 4*se+1e-9 {
		t.Errorf("antithetic mean %g vs plain %g differ by %g (> 4se = %g)",
			antiW.Mean(), plainW.Mean(), diff, 4*se)
	}
	// Arrival thinning under the mirror keeps the exact per-cycle rate:
	// u < p becomes 1-u < p. Pooled counts over 24 runs must be close.
	if rel := math.Abs(float64(plainMsgs-antiMsgs)) / float64(plainMsgs); rel > 0.02 {
		t.Errorf("pooled message counts differ by %.1f%%: %d vs %d",
			100*rel, plainMsgs, antiMsgs)
	}
}
