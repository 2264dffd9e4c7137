package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"banyan/internal/dist"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/vr"
)

// pinVerdict is one drift verdict in engine-neutral form: Switch is
// 1-based within the stage, 0 for the stage's pooled histogram.
type pinVerdict struct {
	Stage, Switch         int
	N                     int64
	KS, Critical, Trigger float64
	Drifted               bool
}

// driftPinGolden holds TestDriftPinned's recorded output. It is fixed:
// a refactor of the monitor must reproduce it byte for byte.
var driftPinGolden = filepath.Join("testdata", "drift_pin.golden")

// TestDriftPinned pins the drift monitor's observable output bit for bit
// on one fast point and five graph points (fixed, early-stopped, checked
// against a wrong stage-2 model, hot-module, favorite-output): every
// verdict's N, KS, critical value and trigger, the drift and point_done
// events, the drift.* metrics and the ledger's drift totals. The
// verdicts are recomputed by pinCheck from the very histograms the
// runner pooled, captured through the runRep hook.
func TestDriftPinned(t *testing.T) {
	graph := func(label string, cfg simnet.Config) Point {
		return Point{Label: label, Engine: Graph, Cfg: cfg}
	}
	base := simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 20000, Warmup: 1000}
	hot, fav := base, base
	hot.HotModule, hot.Cycles, hot.Warmup = 0.2, 4000, 400
	fav.Q = 0.3
	wrong := func(cfg *simnet.Config, stage, support int) (dist.PMF, error) {
		if stage == 2 {
			return dist.PointPMF(40), nil
		}
		return (&DriftMonitor{}).model(cfg, stage, support)
	}
	cases := []struct {
		name string
		pt   Point
		plan *vr.Plan
		ref  func(*simnet.Config, int, int) (dist.PMF, error)
	}{
		{"fast", Point{Label: "fast", Reps: 2, Cfg: base}, nil, nil},
		{"graph-fixed", graph("graph-fixed", base), nil, nil},
		{"graph-early-stopped", Point{Label: "graph-early-stopped", Engine: Graph, Reps: 8,
			Cfg: simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 5000}},
			&vr.Plan{TargetCI: 10, MinReps: 2, MaxReps: 8}, nil},
		{"graph-wrong-model", graph("graph-wrong-model", base), nil, wrong},
		{"graph-hot", graph("graph-hot", hot), nil, nil},
		{"graph-favorite", graph("graph-favorite", fav), nil, nil},
	}
	var sb strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&sb, "== %s\n", c.name)
		ring := obs.NewRingSink(256)
		reg := obs.NewRegistry()
		mon := &DriftMonitor{Reference: c.ref}
		mon.Register(reg)
		var (
			mu   sync.Mutex
			reps = map[uint64]*simnet.Config{}
		)
		r := &Runner{RootSeed: 5, Events: ring, Drift: mon, Ledger: NewLedgerCollector(), VR: c.plan}
		r.runRep = func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			res, err := simnet.RunEngine(ctx, e, cfg, nil)
			mu.Lock()
			reps[cfg.Seed] = cfg
			mu.Unlock()
			return res, err
		}
		prs, err := r.Run([]Point{c.pt})
		if err != nil {
			t.Fatal(err)
		}
		pr := prs[0]
		if pr.Err != nil {
			t.Fatal(pr.Err)
		}
		fmt.Fprintf(&sb, "reps %d\n", len(pr.Runs))
		var cfgs []*simnet.Config
		for rep := range pr.Runs {
			cfg, ok := reps[simnet.SplitSeed(pr.Seed, uint64(rep))]
			if !ok {
				t.Fatalf("%s: replication %d was not captured", c.name, rep)
			}
			cfgs = append(cfgs, cfg)
		}
		vs, skipped, err := pinCheck(&DriftMonitor{Reference: c.ref}, &pr.Point, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "skipped %q\n", skipped)
		for _, v := range vs {
			fmt.Fprintf(&sb, "verdict stage=%d switch=%d n=%d ks=%016x crit=%016x trig=%016x drifted=%v\n",
				v.Stage, v.Switch, v.N, math.Float64bits(v.KS), math.Float64bits(v.Critical),
				math.Float64bits(v.Trigger), v.Drifted)
		}
		for _, ev := range ring.Events() {
			switch ev.Event {
			case obs.EventDrift:
				fmt.Fprintf(&sb, "event drift label=%s key=%s seed=%d engine=%s stage=%d switch=%d ks=%016x threshold=%016x err=%q\n",
					ev.Label, ev.Key, ev.Seed, ev.Engine, ev.Stage, ev.Switch,
					math.Float64bits(ev.KS), math.Float64bits(ev.Threshold), ev.Err)
			case obs.EventPointDone:
				for _, w := range ev.Waits {
					fmt.Fprintf(&sb, "event point_done waits stage=%d n=%d mean=%016x p50=%d p90=%d p99=%d p999=%d\n",
						w.Stage, w.N, math.Float64bits(w.Mean), w.P50, w.P90, w.P99, w.P999)
				}
			}
		}
		snap := reg.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "metric %s=%016x\n", name, math.Float64bits(snap[name]))
		}
		tot, err := json.Marshal(r.BuildLedger().Drift)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, "ledger drift %s\n", tot)
	}
	got := sb.String()
	want, err := os.ReadFile(driftPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("drift output differs from %s at line %d:\n got  %s\n want %s", driftPinGolden, i+1, g, w)
			}
		}
	}
}
