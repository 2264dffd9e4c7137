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
