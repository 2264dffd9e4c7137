package simnet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"banyan/internal/topology"
)

// TestGraphCollapsesToStageModel is the collapse contract: under
// uniform traffic the graph engine must reproduce the stage model.
// Table-driven across radix k ∈ {2,3,4,6}, utilization ρ ∈
// {0.5,0.8,0.9} and message size m ∈ {1,2,4}, each point is checked in
// both modes:
//
//   - committed mode (representative, unlimited buffers): the full
//     Result is bit-identical to the batch kernel at every seed — every
//     Welford accumulator, every histogram bucket;
//   - blocking mode with effectively-infinite finite buffers: stage-1
//     statistics are bit-identical up to float summation order (the
//     wait multiset is invariant under intra-cycle reordering for
//     constant service), deep stages agree within golden tolerance and
//     nothing ever blocks.
func TestGraphCollapsesToStageModel(t *testing.T) {
	stagesFor := map[int]int{2: 4, 3: 3, 4: 3, 6: 2}
	seed := uint64(0x9247)
	for _, k := range []int{2, 3, 4, 6} {
		for _, rho := range []float64{0.5, 0.8, 0.9} {
			for _, m := range []int{1, 2, 4} {
				k, rho, m := k, rho, m
				t.Run(fmt.Sprintf("k=%d/rho=%g/m=%d", k, rho, m), func(t *testing.T) {
					seed += 0x9e3779b97f4a7c15
					cfg := Config{
						K: k, Stages: stagesFor[k], P: rho / float64(m),
						Service: mustConstSvc(t, m),
						Cycles:  2000, Warmup: 250, Seed: seed,
					}
					kres, err := Run(&cfg)
					if err != nil {
						t.Fatal(err)
					}
					if kres.Truncated {
						t.Fatalf("stage model truncated at this operating point")
					}

					// Committed mode: bit-for-bit.
					gcfg := cfg
					gcfg.Topology = topology.Omega
					gres, err := RunEngine(context.Background(), Graph, &gcfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gres, kres) {
						t.Fatalf("committed graph result differs from kernel\ngraph:  %+v\nkernel: %+v", gres, kres)
					}

					// Blocking mode with representative (never-filling)
					// buffers: the machinery is live but nothing blocks.
					bcfg := gcfg
					bcfg.StageBuffers = make([]int, cfg.Stages)
					for i := range bcfg.StageBuffers {
						bcfg.StageBuffers[i] = 1 << 16
					}
					bres, err := RunEngine(context.Background(), Graph, &bcfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					if bres.BlockedCycles != 0 {
						t.Fatalf("representative buffers blocked %d cycles", bres.BlockedCycles)
					}
					if bres.Messages != kres.Messages || bres.Offered != kres.Offered {
						t.Fatalf("message conservation: blocking %d/%d vs kernel %d/%d",
							bres.Messages, bres.Offered, kres.Messages, kres.Offered)
					}
					// Stage 1: the wait multiset is identical, so mean and
					// variance agree to float summation order.
					gm, km := bres.StageWait[0].Mean(), kres.StageWait[0].Mean()
					if d := math.Abs(gm - km); d > 1e-9*(1+math.Abs(km)) {
						t.Fatalf("stage-1 mean: blocking %g vs kernel %g", gm, km)
					}
					gv, kv := bres.StageWait[0].Variance(), kres.StageWait[0].Variance()
					if d := math.Abs(gv - kv); d > 1e-6*(1+math.Abs(kv)) {
						t.Fatalf("stage-1 variance: blocking %g vs kernel %g", gv, kv)
					}
					// Deep stages: statistically equivalent (the cycle-driven
					// walk resolves intra-cycle ties differently), within the
					// differential suite's golden tolerance.
					for s := 1; s < cfg.Stages; s++ {
						gm, km := bres.StageWait[s].Mean(), kres.StageWait[s].Mean()
						se := kres.StageWait[s].StdErr() + bres.StageWait[s].StdErr()
						if tol := 10*se + 0.02*(1+math.Abs(km)); math.Abs(gm-km) > tol {
							t.Fatalf("stage %d mean: blocking %g vs kernel %g (tol %g)", s+1, gm, km, tol)
						}
					}
				})
			}
		}
	}
}

// checkGraphNoLeaks asserts the graph engine's cycle loop left nothing
// behind: goroutine count back to baseline (within the polling budget)
// and no arena blocks live — every arena the graph engine checks out
// (committed mode runs on the kernel's) must be returned.
func checkGraphNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := ArenaLive(); n != 0 {
		t.Fatalf("%d arena blocks live after graph run", n)
	}
}

// TestGraphCancellation: a cancelled context stops both graph modes at
// a clean cycle boundary with a truncated partial result, and the cycle
// loop leaks neither goroutines nor arena blocks — including when the
// cancellation lands mid-run.
func TestGraphCancellation(t *testing.T) {
	for _, mode := range []string{"committed", "blocking"} {
		t.Run(mode, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := Config{K: 2, Stages: 4, P: 0.5, Cycles: 2_000_000, Warmup: 100, Seed: 12,
				Topology: topology.Omega}
			if mode == "blocking" {
				cfg.StageBuffers = []int{4, 4, 4, 4}
			}

			// Pre-cancelled: the engine must notice on its first poll.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			res, err := RunEngine(ctx, Graph, &cfg, nil)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if res == nil || !res.Truncated {
				t.Fatalf("expected truncated partial result, got %+v", res)
			}

			// Mid-run: cancel while the cycle loop is hot.
			ctx, cancel = context.WithCancel(context.Background())
			go func() {
				time.Sleep(2 * time.Millisecond)
				cancel()
			}()
			res, err = RunEngine(ctx, Graph, &cfg, nil)
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("unexpected error: %v", err)
			}
			if err != nil && (res == nil || !res.Truncated) {
				t.Fatalf("cancelled run must return a truncated result, got %+v", res)
			}
			checkGraphNoLeaks(t, baseline)
		})
	}
}

// TestGraphHotSpotVerdicts: hot-spot traffic saturates the tree rooted
// at output 0 and the per-switch verdicts say so — the hot switch at
// the last stage is flagged, a switch off the hot path is not, and the
// verdicts are visible in Result.SwitchSat ordered by (stage, switch).
func TestGraphHotSpotVerdicts(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, P: 0.5, HotModule: 0.4,
		Cycles: 3000, Warmup: 300, Seed: 0x407,
		Topology: topology.Omega, TrackSwitches: true}
	res, err := RunEngine(context.Background(), Graph, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sw := 8 // k^(n-1)
	if len(res.SwitchSat) != cfg.Stages*sw {
		t.Fatalf("SwitchSat has %d entries, want %d", len(res.SwitchSat), cfg.Stages*sw)
	}
	byStage := func(stage, id int) SwitchStat { return res.SwitchSat[(stage-1)*sw+id] }
	hot := byStage(cfg.Stages, 0) // owns output row 0
	if !hot.Saturated {
		t.Fatalf("hot switch not saturated: %+v", hot)
	}
	cold := byStage(cfg.Stages, sw-1) // owns the highest output rows
	if cold.Saturated {
		t.Fatalf("cold switch saturated: %+v", cold)
	}
	if hot.HighWater <= cold.HighWater {
		t.Fatalf("hot high-water %d not above cold %d", hot.HighWater, cold.HighWater)
	}
	for _, s := range res.SwitchSat {
		if s.Stage < 1 || s.Stage > cfg.Stages || s.Switch < 0 || s.Switch >= sw {
			t.Fatalf("malformed SwitchStat %+v", s)
		}
	}
	// Without TrackSwitches the verdicts stay out of the Result, and the
	// statistics are unchanged.
	off := cfg
	off.TrackSwitches = false
	ores, err := RunEngine(context.Background(), Graph, &off, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ores.SwitchSat != nil {
		t.Fatal("SwitchSat populated without TrackSwitches")
	}
	res.SwitchSat = nil
	if !reflect.DeepEqual(ores, res) {
		t.Fatal("TrackSwitches changed the simulated statistics")
	}
}

// TestGraphFailLink: single-link failure with deterministic
// reroute-or-drop accounting. Drop policy loses exactly the routed-on
// messages; reroute deflects them to a sister port and counts the
// consequent wrong exits; both policies are bit-deterministic.
func TestGraphFailLink(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.6, Cycles: 2500, Warmup: 300, Seed: 0xfa11,
		Topology:  topology.Omega,
		FailLinks: []LinkFail{{Stage: 2, Row: 3}}}

	drop := base
	drop.FailPolicy = "drop"
	dres, err := RunEngine(context.Background(), Graph, &drop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dres.Dropped == 0 {
		t.Fatal("drop policy lost no messages through a failed link at ρ=0.6")
	}
	if dres.Deflected != 0 || dres.Misrouted != 0 {
		t.Fatalf("drop policy deflected %d / misrouted %d", dres.Deflected, dres.Misrouted)
	}
	dres2, err := RunEngine(context.Background(), Graph, &drop, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dres, dres2) {
		t.Fatal("drop policy not deterministic")
	}

	rr := base
	rr.FailPolicy = "reroute"
	rres, err := RunEngine(context.Background(), Graph, &rr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Dropped != 0 {
		t.Fatalf("reroute policy dropped %d messages with a healthy sister port", rres.Dropped)
	}
	if rres.Deflected == 0 {
		t.Fatal("reroute policy deflected nothing through a failed link")
	}
	if rres.Misrouted == 0 {
		t.Fatal("deflections at stage 2 must corrupt the exit row (no self-correction in a delta network)")
	}
	if rres.Misrouted > rres.Deflected {
		t.Fatalf("misrouted %d > deflected %d", rres.Misrouted, rres.Deflected)
	}
	rres2, err := RunEngine(context.Background(), Graph, &rr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rres, rres2) {
		t.Fatal("reroute policy not deterministic")
	}

	// Blocking mode honors the same accounting.
	brr := rr
	brr.StageBuffers = []int{2, 2, 2}
	bres, err := RunEngine(context.Background(), Graph, &brr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Deflected == 0 || bres.Dropped != 0 {
		t.Fatalf("blocking reroute: deflected %d dropped %d", bres.Deflected, bres.Dropped)
	}
	bres2, err := RunEngine(context.Background(), Graph, &brr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bres, bres2) {
		t.Fatal("blocking reroute not deterministic")
	}
}

// TestGraphHeterogeneousBuffers: a tight mid-network buffer map blocks
// (backpressure, not loss): blocked cycles accumulate, nothing drops,
// and every message still gets through — message conservation against
// the committed run on the identical trace.
func TestGraphHeterogeneousBuffers(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, P: 0.8, Cycles: 2500, Warmup: 300, Seed: 0xb10c,
		Topology: topology.Omega}
	committed, err := RunEngine(context.Background(), Graph, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tight := cfg
	tight.StageBuffers = []int{0, 1, 1, 2} // stage 1 infinite, 2..4 tight
	tight.TrackSwitches = true
	bres, err := RunEngine(context.Background(), Graph, &tight, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bres.BlockedCycles == 0 {
		t.Fatal("single-slot buffers at ρ=0.8 never blocked")
	}
	if bres.Dropped != 0 {
		t.Fatalf("backpressure must not drop: lost %d", bres.Dropped)
	}
	if bres.Messages != committed.Messages || bres.Offered != committed.Offered {
		t.Fatalf("message conservation: %d/%d vs committed %d/%d",
			bres.Messages, bres.Offered, committed.Messages, committed.Offered)
	}
	// Blocked cycles must land on switches of the capped stages, and at
	// least one blocked switch must carry a saturation verdict.
	anySat := false
	for _, s := range bres.SwitchSat {
		if s.Blocked > 0 && tight.StageBuffers[s.Stage-1] == 0 {
			t.Fatalf("blocked cycles on an infinite-buffer stage: %+v", s)
		}
		if s.Blocked > 0 && s.Saturated {
			anySat = true
		}
	}
	if !anySat {
		t.Fatal("no saturation verdict despite blocking")
	}
	// Backpressure must inflate the mean wait, never deflate it.
	if bres.MeanTotalWait() < committed.MeanTotalWait() {
		t.Fatalf("blocking mean wait %g below committed %g", bres.MeanTotalWait(), committed.MeanTotalWait())
	}
}

// TestGraphKnobsRejectedByStageEngines: the stage-model engines reject
// topology-true configuration outright instead of silently ignoring it.
func TestGraphKnobsRejectedByStageEngines(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, P: 0.5, Cycles: 500, Seed: 1, Topology: topology.Flip}
	if _, err := Run(&cfg); err == nil || !strings.Contains(err.Error(), "graph engine") {
		t.Fatalf("fast engine accepted Topology: %v", err)
	}
	src, err := NewTraceStream(&Config{K: 2, Stages: 3, P: 0.5, Cycles: 500, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunEngine(context.Background(), Reference, &cfg, src); err == nil || !strings.Contains(err.Error(), "graph engine") {
		t.Fatalf("reference engine accepted Topology: %v", err)
	}
	if _, err := RunEngine(context.Background(), Literal, &cfg, src); err == nil || !strings.Contains(err.Error(), "graph engine") {
		t.Fatalf("literal engine accepted Topology: %v", err)
	}
	// Graph-only knobs without a Topology fail validation everywhere.
	buf := Config{K: 2, Stages: 3, P: 0.5, Cycles: 500, Seed: 1, StageBuffers: []int{2, 2, 2}}
	if err := buf.Validate(); err == nil || !strings.Contains(err.Error(), "StageBuffers") {
		t.Fatalf("StageBuffers without Topology validated: %v", err)
	}
	// And the graph engine refuses a wrapped (partial) network.
	wrap := Config{K: 2, Stages: 8, P: 0.5, Cycles: 500, Seed: 1, MaxRows: 64, Topology: topology.Omega}
	if _, err := RunEngine(context.Background(), Graph, &wrap, nil); err == nil || !strings.Contains(err.Error(), "MaxRows") {
		t.Fatalf("graph engine accepted a wrapped network: %v", err)
	}
}

// TestGraphSwitchLoadDrains guards committed mode's per-switch release
// schedule. A message routed at cycle t with committed start s holds its
// switch until s+1, so a message queued at the last stage still holds
// its switch after it has left the network; the kernel's idle-cycle skip
// must apply such releases when it jumps a gap, not lose or delay them.
// Sparse traffic in short schedule blocks makes the skip fire often with
// releases pending; on a one-switch network a release applied late
// shows up directly in the high-water mark. Each run must end with every backlog counter at
// zero, and must match the same trace pulled one cycle per block — a
// run that never skips — bit for bit, switch high-water marks included.
func TestGraphSwitchLoadDrains(t *testing.T) {
	svc := mustConstSvc(t, 4)
	cases := map[string]Config{
		"one-switch": {K: 2, Stages: 1, P: 0.1, Service: svc, Cycles: 20000, Warmup: 200, Seed: 0x10ac},
		"sparse":     {K: 2, Stages: 2, P: 0.08, Service: svc, Cycles: 20000, Warmup: 200, Seed: 0x10ad},
		"sparse-deep": {K: 2, Stages: 4, P: 0.02, Service: svc, Cycles: 20000, Warmup: 200, Seed: 0x10ae,
			Topology: topology.Butterfly},
		"faillink-drop": {K: 2, Stages: 3, P: 0.05, Service: svc, Cycles: 20000, Warmup: 200, Seed: 0x10af,
			FailLinks: []LinkFail{{Stage: 2, Row: 3}}, FailPolicy: "drop"},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := cfg
			if cfg.Topology == "" {
				cfg.Topology = topology.Omega
			}
			cfg.TrackSwitches = true
			run := func(blockCycles int) *Result {
				t.Helper()
				wir, err := topology.WiringFor(cfg.Topology, cfg.K, cfg.Stages)
				if err != nil {
					t.Fatal(err)
				}
				src, err := NewTraceStream(&cfg, blockCycles)
				if err != nil {
					t.Fatal(err)
				}
				g := newGraphNet(&cfg, wir)
				ar := getArena()
				defer ar.release()
				res, err := runKernel(context.Background(), &cfg, src, ar, g)
				if err != nil {
					t.Fatal(err)
				}
				if res.Truncated {
					t.Fatalf("run truncated at cycle %d", res.TruncatedAt)
				}
				for s, row := range g.load {
					for id, v := range row {
						if v != 0 {
							t.Fatalf("block size %d: stage %d switch %d backlog %d after drain", blockCycles, s+1, id, v)
						}
					}
				}
				return res
			}
			skipping := run(16)
			if cfg.FailLinks != nil && skipping.Dropped == 0 {
				t.Fatal("failed link dropped nothing")
			}
			if !reflect.DeepEqual(skipping, run(1)) {
				t.Fatal("idle-cycle skip changed the result or the switch telemetry")
			}
		})
	}
}
