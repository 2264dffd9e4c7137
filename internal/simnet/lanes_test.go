package simnet

import (
	"context"
	"reflect"
	"testing"

	"banyan/internal/obs"
)

// laneCfgs builds the per-replication configs a lane group runs: rep i
// gets seed SplitSeed(base.Seed, i), exactly the derivation
// RunReplications and the sweep runner use.
func laneCfgs(base *Config, w int) []*Config {
	cfgs := make([]*Config, w)
	for i := 0; i < w; i++ {
		c := *base
		c.Seed = SplitSeed(base.Seed, uint64(i))
		if base.WaitHists != nil {
			c.WaitHists = freshHists(base)
		}
		cfgs[i] = &c
	}
	return cfgs
}

// scalarReps runs w replications of base on the scalar kernel, one
// engine invocation each — the oracle the lanes are held to.
func scalarReps(t *testing.T, base *Config, w int) ([]*Result, []*Config) {
	t.Helper()
	cfgs := laneCfgs(base, w)
	results := make([]*Result, w)
	for i, cfg := range cfgs {
		c := *cfg // Run mutates nothing, but keep the oracle isolated
		res, err := Run(&c)
		if err != nil {
			t.Fatalf("scalar rep %d: %v", i, err)
		}
		results[i] = res
	}
	return results, cfgs
}

// TestLanesMatchScalarExact is the lane bit-identity contract: at every
// lane width — power of two, odd, and degenerate W=1 — every lane of a
// lock-step run produces a Result bit-identical to a scalar run of the
// same replication, across the full differential matrix (non-pow2
// radix, bulk, favorite, hot, resampled, bursty, wrapped, tracked
// stage waits, saturation truncation) — and whatever the chunk size of
// the lanes' schedule rings: an even and an odd group also run on one-
// and three-slot chunks, so their cells spill across chunks.
func TestLanesMatchScalarExact(t *testing.T) {
	widths := []int{1, 2, 3, 4, 8}
	for _, c := range kernelIdentityCases(t) {
		cfg := c.cfg
		want, _ := scalarReps(t, &cfg, 8)
		for _, w := range widths {
			ringChunks := []int{0}
			if w == 2 || w == 3 {
				ringChunks = []int{0, 1, 3}
			}
			for _, rc := range ringChunks {
				got, errs := runLanes(context.Background(), laneCfgs(&cfg, w), &lanesArena{ringChunk: rc})
				for l := 0; l < w; l++ {
					if errs[l] != nil {
						t.Fatalf("%s W=%d ring chunks %d lane %d: %v", c.name, w, rc, l, errs[l])
					}
					if !reflect.DeepEqual(got[l], want[l]) {
						t.Errorf("%s W=%d ring chunks %d lane %d diverges from scalar\nlane   %+v\nscalar %+v",
							c.name, w, rc, l, got[l], want[l])
					}
				}
			}
		}
	}
}

// TestLanesWaitHistsMatchScalar covers the per-replication drift
// histograms, which live outside Result and therefore outside the
// DeepEqual above.
func TestLanesWaitHistsMatchScalar(t *testing.T) {
	base := Config{K: 2, Stages: 4, P: 0.5, Cycles: 1500, Warmup: 200, Seed: 21}
	base.WaitHists = freshHists(&base) // non-nil marker; copies get fresh sets
	const w = 4
	_, scfgs := scalarReps(t, &base, w)
	lcfgs := laneCfgs(&base, w)
	_, errs := RunLanes(lcfgs)
	for l := 0; l < w; l++ {
		if errs[l] != nil {
			t.Fatalf("lane %d: %v", l, errs[l])
		}
		if !reflect.DeepEqual(lcfgs[l].WaitHists, scfgs[l].WaitHists) {
			t.Errorf("lane %d wait histograms diverge from scalar", l)
		}
	}
}

// TestLanesPermutationInvariance: the seed-to-lane assignment is
// immaterial — permuting the configs permutes the results and nothing
// else. A lane's output depends only on its own seed.
func TestLanesPermutationInvariance(t *testing.T) {
	base := Config{K: 3, Stages: 3, P: 0.45, Cycles: 1500, Warmup: 200, Seed: 22}
	cfgs := laneCfgs(&base, 4)
	want, errs := RunLanes(cfgs)
	for l, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", l, err)
		}
	}
	perm := []int{2, 0, 3, 1}
	shuffled := make([]*Config, len(perm))
	for i, p := range perm {
		c := *cfgs[p]
		shuffled[i] = &c
	}
	got, errs := RunLanes(shuffled)
	for i, p := range perm {
		if errs[i] != nil {
			t.Fatalf("permuted lane %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want[p]) {
			t.Errorf("lane carrying seed %d changed result after permutation", p)
		}
	}
}

// TestLanesWidthInvariance: regrouping the same replications into
// different lane widths — including odd widths and non-divisible tails
// — never changes any per-replication Result.
func TestLanesWidthInvariance(t *testing.T) {
	base := Config{K: 2, Stages: 5, P: 0.55, Cycles: 1500, Warmup: 200, Seed: 23}
	const reps = 8
	cfgs := laneCfgs(&base, reps)
	want, errs := RunLanes(cfgs)
	for l, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", l, err)
		}
	}
	for _, grouping := range [][]int{{4, 4}, {3, 3, 2}, {1, 1, 1, 1, 1, 1, 1, 1}, {5, 3}} {
		at := 0
		for _, g := range grouping {
			got, gerrs := RunLanes(cfgs[at : at+g])
			for i := 0; i < g; i++ {
				if gerrs[i] != nil {
					t.Fatalf("grouping %v rep %d: %v", grouping, at+i, gerrs[i])
				}
				if !reflect.DeepEqual(got[i], want[at+i]) {
					t.Errorf("grouping %v: rep %d diverges from W=%d run", grouping, at+i, reps)
				}
			}
			at += g
		}
	}
}

// TestLanesProbeTotalsMatchScalar is the regression test for probe
// accounting under batched replications: a lane group flushes one
// RunSample per lane on the scalar engine's cadence, so the shared
// SimProbe aggregate — runs, cycles, block pulls, free-list hits, slot
// allocations, messages, high-water maxima — is exactly what the same
// replications produce when run one engine invocation at a time.
func TestLanesProbeTotalsMatchScalar(t *testing.T) {
	base := Config{K: 2, Stages: 4, P: 0.6, Cycles: 3000, Warmup: 300, Seed: 24}
	const w = 4

	scalarProbe := obs.NewSimProbe()
	sbase := base
	sbase.Probe = scalarProbe
	scalarReps(t, &sbase, w)

	laneProbe := obs.NewSimProbe()
	lbase := base
	lbase.Probe = laneProbe
	_, errs := RunLanes(laneCfgs(&lbase, w))
	for l, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", l, err)
		}
	}

	ss, ls := scalarProbe.Snapshot(), laneProbe.Snapshot()
	ss.CyclesPerSec, ls.CyclesPerSec = 0, 0 // wall-clock rates, not totals
	if !reflect.DeepEqual(ls, ss) {
		t.Errorf("lane probe aggregate diverges from scalar\nlanes  %+v\nscalar %+v", ls, ss)
	}
}

// TestLanesCancellation: a cancelled context truncates every live lane
// at the same cycle boundary, each with a partial result and the
// context's error — the scalar contract, W times over.
func TestLanesCancellation(t *testing.T) {
	base := Config{K: 2, Stages: 6, P: 0.5, Cycles: 200000, Warmup: 100, Seed: 25}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, errs := RunLanesCtx(ctx, laneCfgs(&base, 3))
	for l := 0; l < 3; l++ {
		if errs[l] == nil {
			t.Fatalf("lane %d: expected context error", l)
		}
		if results[l] == nil || !results[l].Truncated {
			t.Fatalf("lane %d: expected truncated partial result, got %+v", l, results[l])
		}
	}
}

// TestLanesNoMeasuredMessages: a lane that measures nothing reports the
// scalar engine's error without disturbing its siblings' outcomes.
func TestLanesNoMeasuredMessages(t *testing.T) {
	base := Config{K: 2, Stages: 2, P: 1e-12, Cycles: 50, Seed: 26}
	results, errs := RunLanes(laneCfgs(&base, 2))
	for l := 0; l < 2; l++ {
		if errs[l] == nil {
			t.Fatalf("lane %d: expected no-measured-messages error", l)
		}
		if results[l] != nil {
			t.Fatalf("lane %d: expected nil result, got %+v", l, results[l])
		}
	}
}

// TestDefaultLaneWidth: the auto heuristic picks the largest power of
// two within the replication count, caps at maxLaneWidth, and shrinks
// for topologies whose per-lane port tables would blow the arena
// retention budget.
func TestDefaultLaneWidth(t *testing.T) {
	cfg := &Config{K: 2, Stages: 4, P: 0.5, Cycles: 100}
	for _, tc := range []struct{ reps, want int }{
		{1, 1}, {2, 2}, {3, 2}, {4, 4}, {7, 4}, {8, 8}, {100, 8},
	} {
		if got := DefaultLaneWidth(cfg, tc.reps); got != tc.want {
			t.Errorf("DefaultLaneWidth(reps=%d) = %d, want %d", tc.reps, got, tc.want)
		}
	}
	// 2^17 rows × 4 stages exceeds maxRetainPorts at any W > 1.
	huge := &Config{K: 2, Stages: 17, P: 0.5, Cycles: 100}
	if got := DefaultLaneWidth(huge, 8); got != 1 {
		t.Errorf("DefaultLaneWidth(huge topology) = %d, want 1", got)
	}
}

// TestLanesArenaReleaseRetentionCaps mirrors the scalar arena's
// retention test: pathologically grown lane scratch — shared or
// per-lane — is dropped on release, ordinary scratch is kept.
func TestLanesArenaReleaseRetentionCaps(t *testing.T) {
	a := new(lanesArena)
	a.msl = [][]mrec{make([]mrec, maxRetainSlots+1), make([]mrec, 64)}
	a.waits = [][]int16{make([]int16, maxRetainWaits+1), nil}
	a.free = make([]int64, maxRetainPorts+1)
	a.freeSlots = [][]int32{make([]int32, 0, maxRetainSlots+1), nil}
	a.laneBatch = [][]int32{make([]int32, 0, maxRetainBatch+1), nil}
	a.blks = []TraceBlock{{T: make([]int32, 0, maxRetainBlk+1)}}
	a.rings = []kring{
		{cells: make([]kcell, 2*maxRetainRingCycles), mask: 2*maxRetainRingCycles - 1},
		{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan+1)},
	}
	a.release()
	if a.msl[0] != nil || a.waits[0] != nil || a.free != nil {
		t.Fatal("release retained oversized scratch past the caps")
	}
	if a.msl[1] == nil {
		t.Fatal("release dropped an ordinarily sized sibling slot store")
	}
	if a.freeSlots[0] != nil || a.laneBatch[0] != nil || a.blks[0].T != nil {
		t.Fatal("release retained per-lane scratch past the caps")
	}
	if a.rings[0].cells != nil || a.rings[1].data != nil {
		t.Fatal("release retained an oversized ring")
	}

	b := new(lanesArena)
	b.msl = [][]mrec{make([]mrec, 256)}
	b.laneBatch = [][]int32{make([]int32, 0, 1024)}
	b.freeSlots = [][]int32{make([]int32, 0, 64)}
	b.release()
	if len(b.msl[0]) != 256 || cap(b.laneBatch[0]) != 1024 || cap(b.freeSlots[0]) != 64 {
		t.Fatal("release dropped ordinarily sized scratch")
	}
}

// TestLanesArenaGrowSlots: growing one lane's slot store preserves its
// live records and grows its wait lanes alongside, without touching the
// sibling lanes' stores — each lane grows independently, exactly like a
// scalar run.
func TestLanesArenaGrowSlots(t *testing.T) {
	a := new(lanesArena)
	a.prepare(4, 3, 8, true)
	for l := 0; l < 4; l++ {
		a.growSlots(l, 3, true) // 0 → 256
		if len(a.msl[l]) != 256 {
			t.Fatalf("lane %d: len(msl)=%d after first grow", l, len(a.msl[l]))
		}
		a.msl[l][2] = mrec{dest: uint32(100 + l), row: int32(l)}
	}
	a.growSlots(1, 3, true)
	if len(a.msl[1]) != 512 || len(a.msl[0]) != 256 || len(a.msl[2]) != 256 {
		t.Fatalf("grow of lane 1 disturbed sibling capacities: %d/%d/%d",
			len(a.msl[0]), len(a.msl[1]), len(a.msl[2]))
	}
	for l := 0; l < 4; l++ {
		if a.msl[l][2].dest != uint32(100+l) || a.msl[l][2].row != int32(l) {
			t.Fatalf("lane %d slot lost by growth: %+v", l, a.msl[l][2])
		}
	}
	if len(a.waits[1]) < 512*3 {
		t.Fatalf("waits not grown alongside slots: %d", len(a.waits[1]))
	}
}

// TestLanesAllocSlope: steady-state allocations per replication do not
// scale with the lane width, and do not scale with the run length —
// the hot path (slots, rings, batches, trace blocks) runs entirely out
// of pooled scratch regardless of W.
func TestLanesAllocSlope(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	base := Config{K: 2, Stages: 4, P: 0.5, Cycles: 2000, Warmup: 200, Seed: 27}
	run := func(w int, cycles int) float64 {
		cfg := base
		cfg.Cycles = cycles
		cfgs := laneCfgs(&cfg, w)
		return testing.AllocsPerRun(5, func() {
			if _, errs := RunLanes(cfgs); errs[0] != nil {
				t.Fatal(errs[0])
			}
		})
	}
	run(8, 2000) // warm the pool so measurements see the steady state

	perRep2 := run(2, 2000) / 2
	perRep8 := run(8, 2000) / 8
	// Per-replication setup cost (stream, RNG, Result) is constant; the
	// generous factor absorbs pool evictions under GC pressure.
	if perRep8 > 2*perRep2+8 {
		t.Errorf("allocs/rep scale with lane width: W=2 %.1f, W=8 %.1f", perRep2, perRep8)
	}
	short := run(4, 2000)
	long := run(4, 8000)
	if long > 1.5*short+16 {
		t.Errorf("allocs scale with run length: %.1f @2000 cycles, %.1f @8000 cycles", short, long)
	}
}
