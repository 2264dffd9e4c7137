package simnet

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/topology"
)

// observedGoldenFile pins one FNV-64a digest per configuration over
// everything an observed kernel run shows: the Result, the probe
// snapshot (but its wall-clock cycle rate), the live histograms, the
// trace spans in the tracer's order, the drift histograms
// (Config.WaitHists) and, on the graph wiring, the per-switch wait
// histograms. The configurations drive every observer the kernel
// feeds. Regenerate only for a change meant to alter sample paths:
//
//	SIMNET_GOLDEN_PRINT=1 go test ./internal/simnet/ -run TestObservedGolden -v
const observedGoldenFile = "testdata/observed.golden"

type observedCase struct {
	name   string
	engine Engine
	cfg    Config
	split  int // the arena's split seam: -1 one group, h > 0 split at h
}

func observedCases(t *testing.T) []observedCase {
	wide := Config{K: 2, Stages: 12, P: 0.8, Cycles: 120, Warmup: 40, Seed: 1986}
	return []observedCase{
		{"omega4096-one", Fast, wide, -1},
		{"omega4096-split", Fast, wide, splitAt(wide.Stages)},
		{"hotmodule", Fast, Config{K: 2, Stages: 6, P: 0.5, HotModule: 0.05, Cycles: 1500, Warmup: 200, Seed: 21}, -1},
		{"stagewaits", Fast, Config{K: 2, Stages: 5, P: 0.6, TrackStageWaits: true, Cycles: 1500, Warmup: 200, Seed: 22}, -1},
		{"resampled", Fast, Config{K: 2, Stages: 5, P: 0.2, ResampleService: true, Service: mustMultiSvc(t),
			Cycles: 1500, Warmup: 200, Seed: 23}, -1},
		{"k3", Fast, Config{K: 3, Stages: 4, P: 0.5, Cycles: 1200, Warmup: 200, Seed: 24}, -1},
		{"split-options", Fast, Config{K: 2, Stages: 6, P: 0.2, HotModule: 0.05, TrackStageWaits: true,
			ResampleService: true, Service: mustMultiSvc(t), Cycles: 1500, Warmup: 200, Seed: 25}, 3},
		{"graph-reroute", Graph, Config{K: 2, Stages: 4, P: 0.6, TrackSwitches: true, Cycles: 1500, Warmup: 200, Seed: 26,
			FailLinks: []LinkFail{{Stage: 2, Row: 3}}, FailPolicy: "reroute"}, -1},
		{"graph-drop", Graph, Config{K: 2, Stages: 4, P: 0.6, TrackSwitches: true, Cycles: 1500, Warmup: 200, Seed: 27,
			Topology: topology.Flip, FailLinks: []LinkFail{{Stage: 3, Row: 5}}, FailPolicy: "drop"}, -1},
	}
}

// observedDigest runs c with the whole telemetry stack on and returns
// the digest of what the run shows.
func observedDigest(t *testing.T, c observedCase) string {
	t.Helper()
	a := getArena()
	defer a.release()
	return observedDigestOn(t, c, a)
}

// observedDigestOn is observedDigest on arena a.
func observedDigestOn(t *testing.T, c observedCase, a *arena) string {
	t.Helper()
	cfg := c.cfg
	probe := obs.NewSimProbe()
	probe.Hists = obs.NewHistSet()
	probe.Tracer = obs.NewTracer(64, 1<<12)
	cfg.Probe = probe
	cfg.WaitHists = freshHists(&cfg)
	if c.engine == Graph {
		cfg.SwitchWaitHists = make([][]*stats.Hist, cfg.Stages)
		for s := range cfg.SwitchWaitHists {
			cfg.SwitchWaitHists[s] = make([]*stats.Hist, (1<<cfg.Stages)/cfg.K)
			for i := range cfg.SwitchWaitHists[s] {
				cfg.SwitchWaitHists[s][i] = &stats.Hist{}
			}
		}
	}
	a.split = c.split
	res, err := runEngine(context.Background(), c.engine, &cfg, nil, a)
	a.split = 0
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	snap := probe.Snapshot()
	snap.CyclesPerSec = 0 // wall-clock
	var live []obs.HistSnapshot
	for _, h := range append(probe.Hists.Stages(cfg.Stages), probe.Hists.Total()) {
		live = append(live, h.Snapshot())
	}
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, v := range []any{res, snap, live, probe.Tracer.Spans(), cfg.WaitHists, cfg.SwitchWaitHists} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestObservedGolden: an observed kernel run shows exactly what it
// showed when the digests were recorded, observer by observer.
func TestObservedGolden(t *testing.T) {
	record := os.Getenv("SIMNET_GOLDEN_PRINT") != ""
	want := map[string]string{}
	if !record {
		f, err := os.Open(observedGoldenFile)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, d, ok := strings.Cut(sc.Text(), " "); ok {
				want[name] = d
			}
		}
	}
	for _, c := range observedCases(t) {
		got := observedDigest(t, c)
		if record {
			t.Logf("%s %s", c.name, got)
			continue
		}
		if got != want[c.name] {
			t.Errorf("%s: digest %s, want %s", c.name, got, want[c.name])
		}
	}
}
