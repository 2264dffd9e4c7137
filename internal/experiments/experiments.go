// Package experiments reproduces every table and figure of the paper's
// evaluation: the per-stage waiting-time tables (I–V), the inter-stage
// correlation matrix (VI), the total-wait prediction tables (VII–XII) and
// the total-wait distribution figures (3–8). Each experiment returns a
// structured result that renders itself in the paper's layout
// (SIMULATION rows vs. ANALYSIS/ESTIMATE rows) and that the test suite
// asserts shape properties on.
package experiments

import (
	"context"
	"fmt"

	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/sweep"
	"banyan/internal/traffic"
)

// Scale controls the simulation effort of every experiment.
type Scale struct {
	// TargetMessages is the approximate number of measured messages per
	// simulation run; cycle counts are derived from it.
	TargetMessages int
	// WarmupCycles are simulated before measurement starts.
	WarmupCycles int
	// Seed is the root random seed; every run's seed is derived from it
	// and the run's configuration by the sweep engine.
	Seed uint64
	// Parallelism bounds the sweep worker pool (0 = GOMAXPROCS). Results
	// are byte-identical at every setting.
	Parallelism int
	// Runner, when non-nil, executes all of the scale's simulations —
	// letting callers share a point cache and progress counters across
	// experiments. When nil each batch gets a transient runner configured
	// from the fields above.
	Runner *sweep.Runner
	// Ctx, when non-nil, cancels the scale's simulations (Ctrl-C, a
	// -timeout). Cancellation does not affect the statistics: a run either
	// completes identically or fails with the context's error.
	Ctx context.Context
}

// ctx returns the scale's cancellation context.
func (sc Scale) ctx() context.Context {
	if sc.Ctx != nil {
		return sc.Ctx
	}
	return context.Background()
}

// Quick returns a scale suitable for tests and benchmarks (seconds).
func Quick() Scale {
	return Scale{TargetMessages: 150_000, WarmupCycles: 1500, Seed: 0x5eed}
}

// Full returns a scale suitable for regenerating the paper's numbers
// (a few minutes for the whole suite).
func Full() Scale {
	return Scale{TargetMessages: 2_000_000, WarmupCycles: 5000, Seed: 0x5eed}
}

// NewRunner builds a sweep runner configured from the scale, with a
// fresh point cache. Assign it to Scale.Runner to share simulation work
// across experiments (the total tables and figures, for instance, run
// identical points).
func (sc Scale) NewRunner() *sweep.Runner {
	return &sweep.Runner{
		Parallelism: sc.Parallelism,
		RootSeed:    sc.Seed,
		Cache:       sweep.NewCache(),
	}
}

// runner returns the scale's shared runner, or a transient one.
func (sc Scale) runner() *sweep.Runner {
	if sc.Runner != nil {
		return sc.Runner
	}
	return &sweep.Runner{Parallelism: sc.Parallelism, RootSeed: sc.Seed}
}

// cyclesFor sizes a run to reach the target measured-message count.
func (sc Scale) cyclesFor(rows int, p float64, bulk int) int {
	if bulk < 1 {
		bulk = 1
	}
	perCycle := float64(rows) * p * float64(bulk)
	c := int(float64(sc.TargetMessages)/perCycle) + 1
	if c < 200 {
		c = 200
	}
	return c
}

// point sizes cfg to the scale's effort and wraps it as a sweep point.
// Cfg.Cycles and Cfg.Warmup are derived unless the caller pre-set them
// (heavy-traffic runs need longer warmups, for example). Points whose
// configuration needs the literal engine (finite buffers or occupancy
// tracking) are routed there automatically.
func (sc Scale) point(label string, cfg simnet.Config) sweep.Point {
	if cfg.Cycles == 0 {
		// Rows fails only on a configuration the runner rejects with the
		// same error; one cycle lets that error surface instead of a
		// complaint about zero cycles.
		cfg.Cycles = 1
		if rows, _, err := cfg.Rows(); err == nil {
			cfg.Cycles = sc.cyclesFor(rows, cfg.P, cfg.Bulk)
		}
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = sc.WarmupCycles
	}
	eng := sweep.Fast
	if cfg.BufferCap > 0 || cfg.TrackOccupancy {
		eng = sweep.Literal
	}
	return sweep.Point{Label: label, Cfg: cfg, Engine: eng}
}

// runBatch executes a batch of points on the scale's runner and unwraps
// the per-point results, preserving batch order.
func (sc Scale) runBatch(points []sweep.Point) ([]*simnet.Result, error) {
	prs, err := sc.runner().RunCtx(sc.ctx(), points)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := make([]*simnet.Result, len(prs))
	for i, pr := range prs {
		out[i] = pr.Result()
	}
	return out, nil
}

// run executes one simulation through the sweep engine.
func (sc Scale) run(label string, cfg simnet.Config) (*simnet.Result, error) {
	res, err := sc.runBatch([]sweep.Point{sc.point(label, cfg)})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// model returns the Section IV approximation model used by all ESTIMATE
// rows.
func model() stages.Model { return stages.DefaultModel() }

// mustConst returns a constant-size service law.
func mustConst(m int) traffic.Service {
	s, err := traffic.ConstService(m)
	if err != nil {
		panic(err)
	}
	return s
}
