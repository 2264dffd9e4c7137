package sweep

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"banyan/internal/dist"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/topology"
	"banyan/internal/vr"
)

// graphSweepGolden pins graph-engine sweep output — per-point cache
// keys and pooled statistics — at a fixed root seed, across worker
// counts. Regenerate intended changes with
//
//	SWEEP_GOLDEN_PRINT=1 go test ./internal/sweep/ -run TestGoldenSweepGraph -v
var graphSweepGolden = map[string]struct {
	key          string
	meanW, varW  string
	messages     int64
	replications int
}{
	"graph/omega":    {key: "f3e6043c22180526", meanW: "1.363473991", varW: "1.898761988", messages: 21105, replications: 2},
	"graph/flip":     {key: "24fbb80bf6901e61", meanW: "1.36496489", varW: "1.875651661", messages: 21152, replications: 2},
	"graph/blocking": {key: "fb467e5f55189a64", meanW: "38.01064832", varW: "3470.798646", messages: 26755, replications: 2},
	"graph/hotspot":  {key: "d9eb9d6adac04c16", meanW: "492.1541215", varW: "541407.5029", messages: 9499, replications: 1},
}

func graphSweepPoints() []Point {
	return []Point{
		{Label: "graph/omega", Engine: Graph, Reps: 2,
			Cfg: simnet.Config{K: 2, Stages: 4, P: 0.55, Cycles: 1200, Warmup: 150}},
		{Label: "graph/flip", Engine: Graph, Reps: 2,
			Cfg: simnet.Config{K: 2, Stages: 4, P: 0.55, Cycles: 1200, Warmup: 150,
				Topology: topology.Flip}},
		{Label: "graph/blocking", Engine: Graph, Reps: 2,
			Cfg: simnet.Config{K: 2, Stages: 4, P: 0.7, Cycles: 1200, Warmup: 150,
				Topology: topology.Omega, StageBuffers: []int{2, 2, 2, 2}}},
		{Label: "graph/hotspot", Engine: Graph, Reps: 1,
			Cfg: simnet.Config{K: 2, Stages: 4, P: 0.5, HotModule: 0.3, Cycles: 1200, Warmup: 150,
				Topology: topology.Omega, TrackSwitches: true}},
	}
}

// TestGoldenSweepGraphEngine: the pinned graph-engine sweep values hold
// at every worker count — the graph engine rides the same
// schedule-independent seed derivation as the stage-model engines, and
// its graph-only config fields land in the canonical hash (four
// distinct keys below, including two configs differing only in wiring).
func TestGoldenSweepGraphEngine(t *testing.T) {
	for _, par := range []int{1, 4} {
		r := &Runner{Parallelism: par, RootSeed: 0x5eed}
		prs, err := r.Run(graphSweepPoints())
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("parallelism=%d", par)
		if len(prs) != len(graphSweepGolden) {
			t.Fatalf("%s: %d points, want %d", label, len(prs), len(graphSweepGolden))
		}
		keys := map[string]bool{}
		for _, pr := range prs {
			if pr.Err != nil {
				t.Fatalf("%s: point %q failed: %v", label, pr.Point.Label, pr.Err)
			}
			var msgs int64
			for _, run := range pr.Runs {
				msgs += run.Messages
			}
			key := keyHex(pr.Key)
			keys[key] = true
			meanW := fmt.Sprintf("%.10g", pr.Agg.MeanTotalWait())
			varW := fmt.Sprintf("%.10g", pr.Agg.VarTotalWait())
			if os.Getenv("SWEEP_GOLDEN_PRINT") != "" {
				t.Logf("%q: {key: %q, meanW: %q, varW: %q, messages: %d, replications: %d},",
					pr.Point.Label, key, meanW, varW, msgs, len(pr.Runs))
				continue
			}
			want, ok := graphSweepGolden[pr.Point.Label]
			if !ok {
				t.Fatalf("%s: no golden entry for point %q", label, pr.Point.Label)
			}
			if key != want.key || meanW != want.meanW || varW != want.varW ||
				msgs != want.messages || len(pr.Runs) != want.replications {
				t.Errorf("%s: point %q diverged from golden\ngot  key=%s meanW=%s varW=%s messages=%d reps=%d\nwant %+v",
					label, pr.Point.Label, key, meanW, varW, msgs, len(pr.Runs), want)
			}
		}
		if len(keys) != len(prs) {
			t.Fatalf("%s: graph points share canonical keys: %v", label, keys)
		}
	}
}

// TestGraphPointHashesDistinctFromFast: a graph point whose config
// carries no graph-only fields still hashes apart from the identical
// Fast point (different engine identity), while a stage-model config
// hashes exactly as it did before the graph fields existed — the
// append-only hash extension cannot disturb pinned keys.
func TestGraphPointHashesDistinctFromFast(t *testing.T) {
	cfg := simnet.Config{K: 2, Stages: 4, P: 0.55, Cycles: 1200, Warmup: 150}
	fast := Point{Cfg: cfg, Engine: Fast, Reps: 2}
	graph := Point{Cfg: cfg, Engine: Graph, Reps: 2}
	if Key(fast, 0x5eed) == Key(graph, 0x5eed) {
		t.Fatal("graph point hashes identically to fast point")
	}
	withTopo := graph
	withTopo.Cfg.Topology = topology.Omega
	if Key(graph, 0x5eed) == Key(withTopo, 0x5eed) {
		t.Fatal("explicit omega topology hashes identically to the empty default")
	}
}

// TestGraphSwitchDriftClean: a healthy uniform-traffic graph point
// passes the per-switch KS battery — every switch of every stage is
// checked against the analytic stage distribution, none drift, and the
// totals land in the ledger's drift section. That holds too for an
// adaptive point that stops after its first wave: the check covers the
// replications that ran, not the slots of those that never did.
func TestGraphSwitchDriftClean(t *testing.T) {
	cases := []struct {
		name string
		pt   Point
		plan *vr.Plan
		reps int // replications the point settles with
	}{
		{"fixed", Point{Label: "graph-drift", Engine: Graph,
			Cfg: simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 20000, Warmup: 1000}}, nil, 1},
		{"early-stopped", Point{Label: "graph-drift-stopped", Engine: Graph, Reps: 8,
			Cfg: simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 5000}},
			&vr.Plan{TargetCI: 10, MinReps: 2, MaxReps: 8}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ring := obs.NewRingSink(256)
			mon := &DriftMonitor{}
			r := &Runner{RootSeed: 5, Events: ring, Drift: mon, Ledger: NewLedgerCollector(), VR: c.plan}
			prs, err := r.Run([]Point{c.pt})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(prs[0].Runs); got != c.reps {
				t.Fatalf("point settled with %d replications, want %d", got, c.reps)
			}
			tot := mon.Totals()
			// 3 stages × 2^(3-1)=4 switches, every one measured at these horizons.
			if want := int64(12); tot.SwitchesChecked != want {
				t.Fatalf("SwitchesChecked = %d, want %d", tot.SwitchesChecked, want)
			}
			if tot.SwitchesDrifted != 0 {
				t.Fatalf("healthy point drifted %d switches", tot.SwitchesDrifted)
			}
			if evs := driftEvents(ring); len(evs) != 0 {
				t.Fatalf("healthy point emitted drift events: %+v", evs)
			}
			led := r.BuildLedger()
			if led.Drift == nil || led.Drift.SwitchesChecked != 12 {
				t.Fatalf("ledger drift section missing switch totals: %+v", led.Drift)
			}
			var sb strings.Builder
			if err := led.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(sb.String(), "switches") {
				t.Fatalf("ledger text omits switch drift columns:\n%s", sb.String())
			}
		})
	}
}

// TestGraphSwitchDriftWrongModelTriggers: a mismatched reference model
// must be caught switch by switch, with events naming both the stage
// and the switch.
func TestGraphSwitchDriftWrongModelTriggers(t *testing.T) {
	ring := obs.NewRingSink(256)
	mon := &DriftMonitor{
		Reference: func(cfg *simnet.Config, stage, support int) (dist.PMF, error) {
			if stage == 2 {
				return dist.PointPMF(40), nil
			}
			return (&DriftMonitor{}).model(cfg, stage, support)
		},
	}
	r := &Runner{RootSeed: 5, Events: ring, Drift: mon}
	pt := Point{
		Label:  "graph-drift-bad",
		Engine: Graph,
		Cfg:    simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 20000, Warmup: 1000},
	}
	if _, err := r.Run([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if tot := mon.Totals(); tot.SwitchesDrifted == 0 {
		t.Fatalf("mismatched model drifted no switches: %+v", tot)
	}
	var swEvents int
	for _, ev := range driftEvents(ring) {
		if ev.Switch == 0 {
			continue // stage-level verdicts from the point monitor
		}
		swEvents++
		if ev.Stage != 2 {
			t.Fatalf("per-switch drift blamed stage %d, want 2: %+v", ev.Stage, ev)
		}
		if ev.KS <= ev.Threshold || ev.Threshold == 0 {
			t.Fatalf("per-switch drift statistic malformed: %+v", ev)
		}
	}
	if swEvents == 0 {
		t.Fatal("no drift event carried a switch index")
	}
}

// TestGraphSwitchDriftOneModelPerStage: a graph point's stage and
// switch verdicts are held against one model per stage, so a 3-stage
// point asks its reference for three models, not one per check path.
func TestGraphSwitchDriftOneModelPerStage(t *testing.T) {
	var calls atomic.Int64
	mon := &DriftMonitor{
		Reference: func(cfg *simnet.Config, stage, support int) (dist.PMF, error) {
			calls.Add(1)
			return (&DriftMonitor{}).model(cfg, stage, support)
		},
	}
	r := &Runner{RootSeed: 5, Drift: mon}
	pt := Point{Label: "graph-models", Engine: Graph,
		Cfg: simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 4000, Warmup: 400}}
	if _, err := r.Run([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if tot := mon.Totals(); tot.Checked != 1 || tot.SwitchesChecked != 12 {
		t.Fatalf("point not checked by stage and switch: %+v", tot)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("Reference called %d times for 3 stages, want 3", got)
	}
}

// TestGraphSwitchDriftSkipsAsymmetricLoad: per-switch verdicts are only
// meaningful when every switch draws from the same law; hot-spot
// traffic must be skipped, not flagged.
func TestGraphSwitchDriftSkipsAsymmetricLoad(t *testing.T) {
	mon := &DriftMonitor{}
	r := &Runner{RootSeed: 5, Drift: mon}
	pt := Point{
		Label:  "graph-hot",
		Engine: Graph,
		Cfg:    simnet.Config{K: 2, Stages: 3, P: 0.4, HotModule: 0.2, Cycles: 4000, Warmup: 400},
	}
	if _, err := r.Run([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if tot := mon.Totals(); tot.SwitchesChecked != 0 || tot.SwitchesDrifted != 0 {
		t.Fatalf("asymmetric point was switch-checked: %+v", tot)
	}
}

// TestLedgerSaturationVerdicts: a hot-spot graph point run with
// TrackSwitches surfaces its per-switch saturation verdicts in the run
// ledger — both the JSON rows and the text rendering.
func TestLedgerSaturationVerdicts(t *testing.T) {
	led := NewLedgerCollector()
	r := &Runner{RootSeed: 7, Ledger: led}
	pt := Point{
		Label:  "graph-sat",
		Engine: Graph,
		Cfg: simnet.Config{K: 2, Stages: 4, P: 0.5, HotModule: 0.4, Cycles: 3000, Warmup: 300,
			Topology: topology.Omega, TrackSwitches: true},
	}
	prs, err := r.Run([]Point{pt})
	if err != nil {
		t.Fatal(err)
	}
	if prs[0].Err != nil {
		t.Fatal(prs[0].Err)
	}
	rows := led.Rows()
	if len(rows) != 1 || rows[0].SaturatedSwitches == 0 {
		t.Fatalf("hot-spot point reported no saturated switches: %+v", rows)
	}
	var sb strings.Builder
	if err := r.BuildLedger().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "saturated switches") || !strings.Contains(sb.String(), "graph-sat") {
		t.Fatalf("ledger text omits the saturation table:\n%s", sb.String())
	}
}
