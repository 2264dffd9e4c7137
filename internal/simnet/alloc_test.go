package simnet

import (
	"context"
	"testing"

	"banyan/internal/topology"
)

// TestTrackStageWaitsAllocsFlat: with per-stage wait tracking on, no
// engine allocates per delivered message. Each engine runs one
// configuration at two horizons, the long one delivering four times the
// messages; a per-message allocation (a covariance vector per finished
// message, say) would add tens of thousands of allocations to the long
// run, while per-run scratch, slot growth, histogram buckets and pool
// misses (the race detector drops pooled arenas at random) stay far
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
