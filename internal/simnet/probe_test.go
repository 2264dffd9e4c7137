package simnet

import (
	"context"
	"reflect"
	"testing"

	"banyan/internal/obs"
)

// TestProbeDoesNotChangeResults attaches a SimProbe and checks both that
// the probe populates and — the load-bearing guarantee — that results
// are identical with and without it.
func TestProbeDoesNotChangeResults(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.4, Cycles: 2000, Warmup: 100, Seed: 7}

	t.Run("fast", func(t *testing.T) {
		plain := base
		bare, err := Run(&plain)
		if err != nil {
			t.Fatal(err)
		}
		probed := base
		probed.Probe = obs.NewSimProbe()
		got, err := Run(&probed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, got) {
			t.Fatalf("probe changed the result:\nbare  %+v\nprobe %+v", bare, got)
		}
		checkProbe(t, probed.Probe, base.Stages, got.Messages)
	})

	t.Run("literal", func(t *testing.T) {
		run := func(cfg *Config) (*Result, error) {
			src, err := NewTraceStream(cfg, 0)
			if err != nil {
				return nil, err
			}
			return RunEngine(context.Background(), Literal, cfg, src)
		}
		plain := base
		bare, err := run(&plain)
		if err != nil {
			t.Fatal(err)
		}
		probed := base
		probed.Probe = obs.NewSimProbe()
		got, err := run(&probed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, got) {
			t.Fatalf("probe changed the result:\nbare  %+v\nprobe %+v", bare, got)
		}
		checkProbe(t, probed.Probe, base.Stages, got.Messages)
	})
}

func checkProbe(t *testing.T, p *obs.SimProbe, stages int, messages int64) {
	t.Helper()
	s := p.Snapshot()
	if s.Runs != 1 {
		t.Fatalf("runs %d, want 1", s.Runs)
	}
	if s.Cycles < 2000 {
		t.Fatalf("cycles %d, want >= horizon 2000", s.Cycles)
	}
	if s.Messages != messages {
		t.Fatalf("probe messages %d, result %d", s.Messages, messages)
	}
	if s.BlockPulls == 0 {
		t.Fatal("no block pulls recorded")
	}
	if s.SlotAllocs == 0 {
		t.Fatal("no slot allocations recorded")
	}
	if s.FreeListRate <= 0 || s.FreeListRate >= 1 {
		t.Fatalf("free-list rate %g, want in (0,1) for a long run", s.FreeListRate)
	}
	if s.MaxInFlight <= 0 {
		t.Fatalf("in-flight high water %d, want > 0", s.MaxInFlight)
	}
	if len(s.StageHighWater) != stages {
		t.Fatalf("stage high-water len %d, want %d", len(s.StageHighWater), stages)
	}
	for i, hw := range s.StageHighWater {
		if hw <= 0 {
			t.Fatalf("stage %d high water %d, want > 0 (all stages carry traffic)", i+1, hw)
		}
	}
}

// TestProbeAggregatesAcrossRuns checks that one probe shared by several
// runs (the sweep wiring) accumulates rather than overwrites.
func TestProbeAggregatesAcrossRuns(t *testing.T) {
	p := obs.NewSimProbe()
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := Config{K: 2, Stages: 2, P: 0.3, Cycles: 500, Warmup: 50, Seed: seed, Probe: p}
		if _, err := Run(&cfg); err != nil {
			t.Fatal(err)
		}
	}
	s := p.Snapshot()
	if s.Runs != 3 {
		t.Fatalf("runs %d, want 3", s.Runs)
	}
	if s.Cycles < 3*500 {
		t.Fatalf("cycles %d, want >= 1500", s.Cycles)
	}
}
