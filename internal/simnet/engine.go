package simnet

import (
	"context"
	"fmt"

	"banyan/internal/topology"
)

// Engine selects the simulation loop a run executes.
type Engine int

const (
	// Fast is the message-level engine for infinite buffers, executed by
	// the batch kernel (kernel.go).
	Fast Engine = iota
	// Literal is the finite-buffer cycle loop (cycle.go) under its drop
	// policy, with every stage capped at Config.BufferCap.
	Literal
	// Reference is the scalar message-level engine (fastsim.go) the
	// batch kernel was derived from, kept as its independent oracle. It
	// is byte-identical to Fast at every seed.
	Reference
	// Graph is the topology-true graph engine (graph.go): messages
	// advance switch by switch through the wiring of Config.Topology
	// (omega when empty), with optional finite per-stage buffers, link
	// failures and per-switch telemetry.
	Graph
)

func (e Engine) String() string {
	switch e {
	case Literal:
		return "literal"
	case Reference:
		return "reference"
	case Graph:
		return "graph"
	}
	return "fast"
}

// RunEngine runs cfg on engine e, the one entry point of every
// simulation loop. A nil src makes the run generate its own arrival
// schedule, streamed in blocks, so peak memory is bounded by the
// in-flight message count. Otherwise the run consumes src — a
// Trace.Source, or a TraceStream of an equal configuration — which must
// describe the network cfg implies: a source for another radix, depth
// or row count is an error. Graph runs the omega wiring when
// cfg.Topology is empty; the other engines reject every graph-only
// field.
//
// Cancellation (ctx done) stops the engine at a clean cycle boundary: it
// returns the partial Result — flagged Truncated, statistics covering the
// messages that completed — together with ctx.Err(). The saturation
// guards (Config.MaxInFlight, Config.DrainCycles) instead return a nil
// error: a truncated-Unstable result is a successful, deterministic
// measurement of a diverging configuration, not a failure.
func RunEngine(ctx context.Context, e Engine, cfg *Config, src ArrivalSource) (*Result, error) {
	return runEngine(ctx, e, cfg, src, nil)
}

// runEngine is RunEngine over kernel scratch ar; a nil ar is checked out
// of the pool for the run. Tests pass arenas with small ring chunks.
func runEngine(ctx context.Context, e Engine, cfg *Config, src ArrivalSource, ar *arena) (*Result, error) {
	if e == Graph && cfg.Topology == "" {
		gcfg := *cfg // never mutate the caller's Config
		gcfg.Topology = topology.Omega
		cfg = &gcfg
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if e != Graph {
		if err := cfg.requireStageModel(e.String()); err != nil {
			return nil, err
		}
	}
	if e == Fast || e == Reference {
		if err := cfg.requireInfiniteBuffers(e.String()); err != nil {
			return nil, err
		}
	}
	if ar == nil {
		ar = getArena()
		defer ar.release()
	}
	if src == nil {
		st, err := newTraceStream(cfg, 0)
		if err != nil {
			return nil, err
		}
		// The stream is private to this run, so it borrows the arena's
		// block scratch: back-to-back replications then allocate nothing
		// for trace generation either.
		ar.lendBlockScratch(st)
		defer ar.harvestBlockScratch(st)
		src = st
	} else if err := checkSource(cfg, src.Meta()); err != nil {
		return nil, err
	}
	switch e {
	case Literal:
		caps := make([]int, cfg.Stages)
		for i := range caps {
			caps[i] = cfg.BufferCap
		}
		return runCycle(ctx, cfg, src, ar, nil, caps, true)
	case Reference:
		return runReference(ctx, cfg, src)
	case Graph:
		wir, err := topology.WiringFor(cfg.Topology, cfg.K, cfg.Stages)
		if err != nil {
			return nil, err
		}
		return runGraphWired(ctx, cfg, src, wir, ar)
	}
	return runKernel(ctx, cfg, src, ar, nil)
}

// checkSource rejects a source drawn for another network. The engines
// size their state from cfg but route by the source's meta, so a
// mismatch would index past a per-stage table or simulate a network
// nobody asked for.
func checkSource(cfg *Config, m *TraceMeta) error {
	rows, wrapped, err := cfg.Rows()
	if err != nil {
		return err
	}
	if m.K != cfg.K || m.Stages != cfg.Stages || m.Rows != rows || m.Wrapped != wrapped {
		return fmt.Errorf("simnet: source is a k=%d, %d-stage network of %d rows (wrapped=%v), but the config is k=%d, %d stages, %d rows (wrapped=%v)",
			m.K, m.Stages, m.Rows, m.Wrapped, cfg.K, cfg.Stages, rows, wrapped)
	}
	return nil
}
