package simnet

import (
	"context"
	"testing"

	"banyan/internal/obs"
	"banyan/internal/topology"
)

// TestTrackStageWaitsAllocsFlat: with per-stage wait tracking on, no
// engine allocates per delivered message. Each engine runs one
// configuration at two horizons, the long one delivering four times the
// messages; a per-message allocation (a covariance vector per finished
// message, say) would add tens of thousands of allocations to the long
// run, while per-run scratch, slot growth and histogram buckets stay far
// below one allocation per sixteen extra messages. The reference engine's schedule
// buckets churn once per simulated cycle by design (it is the plain
// differential oracle), so for it the check is that tracking adds
// nothing to the growth of the untracked run.
func TestTrackStageWaitsAllocsFlat(t *testing.T) {
	base := Config{K: 2, Stages: 4, P: 0.5, Warmup: 200, Seed: 0xa11c}
	ctx := context.Background()
	engines := []struct {
		name  string
		run   func(cfg *Config) (*Result, error)
		churn bool // allocates per simulated cycle regardless of tracking
	}{
		{"kernel", Run, false},
		{"reference", func(cfg *Config) (*Result, error) {
			return RunEngine(ctx, Reference, cfg, nil)
		}, true},
		{"graph-committed", func(cfg *Config) (*Result, error) {
			return RunEngine(ctx, Graph, cfg, nil)
		}, false},
		{"graph-blocking", func(cfg *Config) (*Result, error) {
			c := *cfg
			c.Topology = topology.Omega
			c.StageBuffers = []int{4, 4, 4, 4}
			return RunEngine(ctx, Graph, &c, nil)
		}, false},
		{"literal", func(cfg *Config) (*Result, error) {
			return RunEngine(ctx, Literal, cfg, nil)
		}, false},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			measure := func(cycles int, track bool) (allocs float64, msgs int64) {
				cfg := base
				cfg.Cycles = cycles
				cfg.TrackStageWaits = track
				allocs = testing.AllocsPerRun(3, func() {
					res, err := e.run(&cfg)
					if err != nil {
						t.Fatal(err)
					}
					msgs = res.Messages
				})
				return allocs, msgs
			}
			shortA, shortM := measure(2000, true)
			longA, longM := measure(8000, true)
			if longM-shortM < 3*shortM/2 {
				t.Fatalf("horizons deliver %d and %d messages: too close to tell", shortM, longM)
			}
			growth := longA - shortA
			if e.churn {
				offShort, _ := measure(2000, false)
				offLong, _ := measure(8000, false)
				growth -= offLong - offShort
			}
			if growth > float64(longM-shortM)/16 {
				t.Fatalf("allocations grow with delivered messages: %.0f allocs for %d messages, %.0f for %d",
					shortA, shortM, longA, longM)
			}
		})
	}
}

// TestTracedRunAllocsFlat: a traced run allocates nothing per sampled
// span. Every measured message is traced (1-in-1), each engine runs at
// two horizons on its own arena, the long one closing four times the
// spans, and the tracer's ring is full before either is measured, so a
// span costs the ring a copy into storage it already owns. Open spans
// live in the arena's span slab, which a warm run reuses; what growth
// remains — slot stores and slabs doubling past the short run's peak —
// stays far below one allocation per sixty-four extra spans. The kernel
// runs as one stage group and split in two, where open spans cross
// between the groups' slabs.
func TestTracedRunAllocsFlat(t *testing.T) {
	base := Config{K: 2, Stages: 4, P: 0.5, Warmup: 200, Seed: 0x5a11}
	engines := []struct {
		name  string
		e     Engine
		split int // the arena's split seam
		set   func(cfg *Config)
	}{
		{"kernel", Fast, -1, nil},
		{"kernel-split", Fast, 2, nil},
		{"graph-committed", Graph, 0, nil},
		{"graph-blocking", Graph, 0, func(cfg *Config) {
			cfg.Topology = topology.Omega
			cfg.StageBuffers = []int{4, 4, 4, 4}
		}},
		{"literal", Literal, 0, nil},
	}
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			a := new(arena)
			a.split = e.split
			probe := obs.NewSimProbe()
			probe.Tracer = obs.NewTracer(1, 512)
			measure := func(cycles int) (allocs float64, spans int64) {
				cfg := base
				cfg.Cycles = cycles
				cfg.Probe = probe
				if e.set != nil {
					e.set(&cfg)
				}
				allocs = testing.AllocsPerRun(1, func() {
					before := probe.Tracer.Total()
					if _, err := runEngine(context.Background(), e.e, &cfg, nil, a); err != nil {
						t.Fatal(err)
					}
					spans = probe.Tracer.Total() - before
				})
				return allocs, spans
			}
			shortA, shortS := measure(2000)
			longA, longS := measure(8000)
			if shortS < 512 || longS-shortS < 3*shortS/2 {
				t.Fatalf("horizons close %d and %d spans: too close to tell, or the ring not full", shortS, longS)
			}
			if growth := longA - shortA; growth > float64(longS-shortS)/64 {
				t.Fatalf("allocations grow with sampled spans: %.0f allocs for %d spans, %.0f for %d",
					shortA, shortS, longA, longS)
			}
		})
	}
}
