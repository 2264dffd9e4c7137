package simnet

import (
	"context"
	"strings"
	"testing"

	"banyan/internal/stats"
)

// TestRunEngineRejectsForeignSource: a trace drawn for another network
// is an error on every engine. The engines size their state from the
// config but route by the source, so a deeper trace used to index past
// the config's WaitHists, and a wider one ran a network the config does
// not describe.
func TestRunEngineRejectsForeignSource(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, P: 0.5, Cycles: 300, Seed: 4}
	cfg.WaitHists = make([]*stats.Hist, cfg.Stages)
	for i := range cfg.WaitHists {
		cfg.WaitHists[i] = &stats.Hist{}
	}
	foreign := map[string]Config{
		"deeper": {K: 2, Stages: 4, P: 0.5, Cycles: 300, Seed: 4},
		"wider":  {K: 4, Stages: 3, P: 0.5, Cycles: 300, Seed: 4},
		"wrapped": {K: 2, Stages: 3, P: 0.5, Cycles: 300, Seed: 4,
			MaxRows: 4},
	}
	for name, fc := range foreign {
		tr, err := GenerateTrace(&fc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, e := range []Engine{Fast, Literal, Reference, Graph} {
			res, err := RunEngine(context.Background(), e, &cfg, tr.Source())
			if err == nil || !strings.Contains(err.Error(), "source is") {
				t.Fatalf("%s trace on the %s engine: got %+v, %v; want a source mismatch error", name, e, res, err)
			}
		}
	}
}

// TestRunEngineRejectsCycleLoopKnobs: the message-level engines model
// infinite buffers, so BufferCap and TrackOccupancy are errors there
// rather than silently ignored (a capped Fast run used to report zero
// drops and skip the unstable-load check).
func TestRunEngineRejectsCycleLoopKnobs(t *testing.T) {
	knobs := map[string]func(*Config){
		"BufferCap":      func(c *Config) { c.BufferCap = 1 },
		"TrackOccupancy": func(c *Config) { c.TrackOccupancy = true },
	}
	for _, e := range []Engine{Fast, Reference} {
		for name, set := range knobs {
			cfg := Config{K: 2, Stages: 2, P: 0.9, Cycles: 300, Seed: 3}
			set(&cfg)
			res, err := RunEngine(context.Background(), e, &cfg, nil)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Fatalf("%s on the %s engine: got %+v, %v; want an error naming %s", name, e, res, err, name)
			}
			if _, err := RunEngine(context.Background(), Literal, &cfg, nil); err != nil {
				t.Fatalf("%s on the literal engine: %v", name, err)
			}
		}
	}
}
