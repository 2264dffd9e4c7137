package sweep

import (
	"context"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"banyan/internal/dist"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/stats"
	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// calibratedPoint is a stage-1-exact, multi-stage operating point well
// inside the paper's model regime: moderate load, unit service, no
// bursts or hot spots.
func calibratedPoint(stages int) Point {
	return Point{
		Label: "calibrated",
		Cfg:   simnet.Config{K: 2, Stages: stages, P: 0.4, Cycles: 20000, Warmup: 1000},
	}
}

func driftEvents(ring *obs.RingSink) []obs.Event {
	var out []obs.Event
	for _, ev := range ring.Events() {
		if ev.Event == obs.EventDrift {
			out = append(out, ev)
		}
	}
	return out
}

// TestDriftCalibratedPointPasses: a healthy simulation of a modelled
// configuration must not trip the monitor — and the point_done event
// must carry the per-stage waiting-time digests.
func TestDriftCalibratedPointPasses(t *testing.T) {
	ring := obs.NewRingSink(64)
	mon := &DriftMonitor{}
	reg := obs.NewRegistry()
	mon.Register(reg)
	r := &Runner{RootSeed: 5, Events: ring, Drift: mon}
	prs, err := r.Run([]Point{calibratedPoint(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(driftEvents(ring)) != 0 {
		t.Fatalf("calibrated point emitted drift events: %+v", driftEvents(ring))
	}
	var done *obs.Event
	for _, ev := range ring.Events() {
		if ev.Event == obs.EventPointDone {
			e := ev
			done = &e
		}
	}
	if done == nil {
		t.Fatal("no point_done event")
	}
	if len(done.Waits) != 3 {
		t.Fatalf("point_done carries %d stage digests, want 3", len(done.Waits))
	}
	for i, w := range done.Waits {
		if w.Stage != i+1 || w.N == 0 || w.P99 < w.P50 {
			t.Fatalf("stage digest %d malformed: %+v", i, w)
		}
		if w.N != prs[0].Result().Messages {
			t.Fatalf("stage %d digest N %d, messages %d", w.Stage, w.N, prs[0].Result().Messages)
		}
	}
	snap := reg.Snapshot()
	if snap["drift.points_checked"] != 1 || snap["drift.points_drifted"] != 0 {
		t.Fatalf("drift counters wrong: %v", snap)
	}
	for _, name := range []string{"drift.stage1.ks", "drift.stage3.ks"} {
		if _, ok := snap[name]; !ok {
			t.Fatalf("metrics missing %q: %v", name, snap)
		}
	}
}

// TestDriftWrongModelTriggers: a reference distribution that does not
// match the simulated system (the operator mis-specified m or λ) must
// produce a drift event naming the offending stage.
func TestDriftWrongModelTriggers(t *testing.T) {
	ring := obs.NewRingSink(64)
	mon := &DriftMonitor{
		Reference: func(cfg *simnet.Config, stage, support int) (dist.PMF, error) {
			if stage == 2 {
				// Predict "every wait is exactly 40 cycles" — nothing like
				// a light-load queue, so stage 2 must drift.
				return dist.PointPMF(40), nil
			}
			// Other stages keep the monitor's own analytic model, so only
			// stage 2 can drift.
			return (&DriftMonitor{}).model(cfg, stage, support)
		},
	}
	r := &Runner{RootSeed: 5, Events: ring, Drift: mon}
	if _, err := r.Run([]Point{calibratedPoint(3)}); err != nil {
		t.Fatal(err)
	}
	evs := driftEvents(ring)
	if len(evs) == 0 {
		t.Fatal("mismatched model produced no drift event")
	}
	for _, ev := range evs {
		if ev.Stage != 2 {
			t.Fatalf("drift blamed stage %d, want 2: %+v", ev.Stage, ev)
		}
		if ev.KS <= ev.Threshold || ev.Threshold == 0 {
			t.Fatalf("drift event statistic malformed: %+v", ev)
		}
		if ev.Label != "calibrated" || ev.Key == "" {
			t.Fatalf("drift event missing point identity: %+v", ev)
		}
	}
}

// TestDriftCheckDirect exercises the monitor's analytic models without
// the runner: a stage-1 exact comparison on a calibrated run passes,
// and the same empirical data against a wrong configuration (claimed
// service length m=4 when the run used m=1) drifts.
func TestDriftCheckDirect(t *testing.T) {
	cfg := simnet.Config{K: 2, Stages: 1, P: 0.4, Cycles: 30000, Warmup: 1000, Seed: 77}
	cfg.WaitHists = []*stats.Hist{{}}
	if _, err := simnet.Run(&cfg); err != nil {
		t.Fatal(err)
	}

	mon := &DriftMonitor{}
	rep, err := mon.Check(&cfg, cfg.WaitHists)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != "" || rep.Drifted {
		t.Fatalf("calibrated stage-1 check failed: %+v", rep)
	}
	if len(rep.Verdicts) != 1 || rep.Verdicts[0].N == 0 {
		t.Fatalf("report malformed: %+v", rep)
	}

	// Same data, wrong claimed service time: the analytic prediction for
	// m=2 (ρ=0.8) is far from the m=1 (ρ=0.4) empirical waits.
	svc, err := traffic.ConstService(2)
	if err != nil {
		t.Fatal(err)
	}
	wrong := cfg
	wrong.Service = svc
	rep2, err := mon.Check(&wrong, cfg.WaitHists)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Drifted {
		t.Fatalf("wrong m not detected: %+v", rep2)
	}
	if stage, ks := rep2.MaxKS(); stage != 1 || ks <= DefaultDriftThreshold {
		t.Fatalf("MaxKS = (%d, %g), want stage 1 above threshold", stage, ks)
	}

	// Wrong arrival rate: claim λ twice the simulated one.
	hot := cfg
	hot.P = 0.8
	rep3, err := mon.Check(&hot, cfg.WaitHists)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Drifted {
		t.Fatalf("wrong λ not detected: %+v", rep3)
	}
}

// TestDriftSkipsUnmodelledTraffic: configurations outside the paper's
// analytic regime are counted as skipped, not guessed at.
func TestDriftSkipsUnmodelledTraffic(t *testing.T) {
	mon := &DriftMonitor{}
	burst := simnet.Config{K: 2, Stages: 1, P: 0.3, Cycles: 100, Warmup: 10,
		Burst: &simnet.BurstParams{POnRate: 0.5, POffRate: 0.1}}
	rep, err := mon.Check(&burst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == "" {
		t.Fatalf("bursty traffic must skip: %+v", rep)
	}

	bulkDeep := simnet.Config{K: 2, Stages: 2, P: 0.1, Bulk: 3, Cycles: 100, Warmup: 10}
	rep2, err := mon.Check(&bulkDeep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Skipped == "" {
		t.Fatalf("bulk beyond stage 1 must skip: %+v", rep2)
	}

	reg := obs.NewRegistry()
	mon.Register(reg)
	if got := reg.Snapshot()["drift.points_skipped"]; got != 2 {
		t.Fatalf("skip counter %v, want 2", got)
	}
}

// TestDriftSkipsFiniteBuffers: finite-buffer and failed-link points
// have no analytic reference, so the monitor must skip them instead of
// holding them to the uniform infinite-buffer model. Held to it, the
// first three finite-buffer points and the three reroute points drift
// although the engines are correct, while the fourth finite-buffer
// point passes dropping 7% of its messages and the two failed-link drop
// points pass dropping a quarter of theirs.
func TestDriftSkipsFiniteBuffers(t *testing.T) {
	lit := func(label string, stages int, p float64, capacity int) Point {
		return Point{Label: label, Engine: Literal, Cfg: simnet.Config{
			K: 2, Stages: stages, P: p, Cycles: 20000, Warmup: 1000, BufferCap: capacity}}
	}
	failed := func(label string, stages int, p float64, policy string, links ...simnet.LinkFail) Point {
		return Point{Label: label, Engine: Graph, Cfg: simnet.Config{
			K: 2, Stages: stages, P: p, Cycles: 20000, Warmup: 1000,
			Topology: topology.Omega, FailLinks: links, FailPolicy: policy}}
	}
	pts := []Point{
		lit("literal n=1 p=0.9 B=1", 1, 0.9, 1),
		lit("literal n=1 p=0.3 B=1", 1, 0.3, 1),
		lit("literal n=2 p=0.8 B=2", 2, 0.8, 2),
		{Label: "graph blocking n=3 p=0.6 B=1", Engine: Graph, Cfg: simnet.Config{
			K: 2, Stages: 3, P: 0.6, Cycles: 20000, Warmup: 1000,
			Topology: topology.Omega, StageBuffers: []int{1, 1, 1}}},
		failed("reroute n=1 p=0.4", 1, 0.4, "reroute", simnet.LinkFail{Stage: 1, Row: 0}),
		failed("reroute n=2 p=0.4", 2, 0.4, "reroute", simnet.LinkFail{Stage: 1, Row: 1}),
		failed("reroute n=3 p=0.4", 3, 0.4, "reroute", simnet.LinkFail{Stage: 2, Row: 3}),
		failed("drop n=2 p=0.6", 2, 0.6, "drop", simnet.LinkFail{Stage: 2, Row: 1}),
		failed("drop n=3 p=0.7", 3, 0.7, "drop",
			simnet.LinkFail{Stage: 3, Row: 2}, simnet.LinkFail{Stage: 3, Row: 5}),
	}
	ring := obs.NewRingSink(256)
	mon := &DriftMonitor{}
	r := &Runner{RootSeed: 5, Events: ring, Drift: mon}
	prs, err := r.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range prs {
		if pr.Err != nil || pr.Truncated() {
			t.Fatalf("%s: err %v, truncated %v", pr.Point.Label, pr.Err, pr.Truncated())
		}
		if reason := driftIneligible(&pr.Point.Cfg); reason == "" {
			t.Errorf("%s: no skip reason", pr.Point.Label)
		}
	}
	if got := mon.Totals(); got != (DriftTotals{Skipped: int64(len(pts))}) {
		t.Fatalf("drift totals %+v, want all %d points skipped", got, len(pts))
	}
	if evs := driftEvents(ring); len(evs) != 0 {
		t.Fatalf("finite-buffer points emitted drift events: %+v", evs)
	}
}

// TestDriftTruncatedAndCachedSkipped: truncated replications poison the
// waiting-time sample, and cached replays carry no fresh histograms —
// neither may reach the monitor.
func TestDriftTruncatedAndCachedSkipped(t *testing.T) {
	mon := &DriftMonitor{}
	ring := obs.NewRingSink(64)
	r := &Runner{RootSeed: 5, Cache: NewCache(), Events: ring, Drift: mon}
	pt := calibratedPoint(2)
	if _, err := r.Run([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if got := mon.Totals().Checked; got != 1 {
		t.Fatalf("first run checked %d points, want 1", got)
	}
	// Second run hits the cache: no fresh simulation, no second check.
	if _, err := r.Run([]Point{pt}); err != nil {
		t.Fatal(err)
	}
	if got := mon.Totals().Checked; got != 1 {
		t.Fatalf("cached replay re-checked: %d", got)
	}

	// A truncated point produces no drift verdict and no Waits digest.
	sat := Point{Label: "saturated", Cfg: simnet.Config{
		K: 2, Stages: 2, P: 0.9, Cycles: 5000, Warmup: 100,
		AllowUnstable: true, MaxInFlight: 1, DrainCycles: 1,
	}}
	ring2 := obs.NewRingSink(64)
	r2 := &Runner{RootSeed: 5, Events: ring2, Drift: mon}
	prs, err := r2.Run([]Point{sat})
	if err != nil {
		t.Fatal(err)
	}
	if !prs[0].Truncated() {
		t.Skip("saturation guard did not trip; nothing to assert")
	}
	if mon.Totals().Checked != 1 {
		t.Fatalf("truncated point reached the monitor")
	}
	for _, ev := range ring2.Events() {
		if ev.Event == obs.EventPointDone && len(ev.Waits) != 0 {
			t.Fatalf("truncated point_done carries waits: %+v", ev)
		}
	}
}

// TestDriftCheckAllocs bounds the allocations of one drift check on a
// k=8, n=2, ρ=0.78 point: the stage-1 Theorem 1 model, the stage-2
// discretized gamma and two KS verdicts, both at the minimum support of
// 256. It makes 39 allocations; with a fresh product series per
// coefficient of R in the stage-1 composition it made 294.
func TestDriftCheckAllocs(t *testing.T) {
	cfg := simnet.Config{K: 8, Stages: 2, P: 0.78, Cycles: 4000, Warmup: 500, Seed: 11}
	cfg.WaitHists = []*stats.Hist{{}, {}}
	if _, err := simnet.Run(&cfg); err != nil {
		t.Fatal(err)
	}
	mon := &DriftMonitor{}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := mon.Check(&cfg, cfg.WaitHists); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Fatalf("DriftMonitor.Check made %v allocations, want ≤ 60", allocs)
	}
}

// pinCheck replays one point's captured replication configurations
// through the runner's drift path — pooling in replication order, then
// the one check over stages and, on graph points, switches — and
// returns every verdict, stage verdicts first, with the skip reason.
func pinCheck(mon *DriftMonitor, pt *Point, reps []*simnet.Config) ([]pinVerdict, string, error) {
	stageHists, switches := poolDriftHists(reps, pt.Cfg.Stages, false)
	rep, err := mon.check(&pt.Cfg, stageHists, switches)
	if err != nil {
		return nil, "", err
	}
	var out []pinVerdict
	for _, v := range rep.Verdicts {
		out = append(out, pinVerdict(v))
	}
	return out, rep.Skipped, nil
}

// TestPointResultDrift: PointResult.Drift is the monitor's report on the
// point's replications pooled. On a fast point its verdicts are those
// DriftMonitor.Check gives on the pooled stage histograms; on a graph
// point those come first, followed by the verdicts of the pooled
// per-switch histograms. It is nil without a monitor, on cache shares,
// on journal resumes and on truncated points.
func TestPointResultDrift(t *testing.T) {
	base := simnet.Config{K: 2, Stages: 3, P: 0.4, Cycles: 4000, Warmup: 400}
	for _, pt := range []Point{
		{Label: "fast", Reps: 2, Cfg: base},
		{Label: "graph", Engine: Graph, Reps: 2, Cfg: base},
	} {
		var (
			mu   sync.Mutex
			reps = map[uint64]*simnet.Config{}
		)
		r := &Runner{RootSeed: 5, Drift: &DriftMonitor{}, Cache: NewCache()}
		r.runRep = func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			res, err := simnet.RunEngine(ctx, e, cfg, nil)
			mu.Lock()
			reps[cfg.Seed] = cfg
			mu.Unlock()
			return res, err
		}
		prs, err := r.Run([]Point{pt})
		if err != nil {
			t.Fatal(err)
		}
		pr := prs[0]
		if pr.Drift == nil || pr.Drift.Skipped != "" {
			t.Fatalf("%s: no drift report: %+v", pt.Label, pr.Drift)
		}
		// Pool the captured histograms independently of the runner: every
		// stage histogram is the sum of the stage's histograms over the
		// replications and, on the graph point, over its switches.
		stageHists := make([]*stats.Hist, base.Stages)
		var switches [][]*stats.Hist
		if pt.Engine == Graph {
			switches = make([][]*stats.Hist, base.Stages)
		}
		for i := range stageHists {
			stageHists[i] = &stats.Hist{}
			for rep := range pr.Runs {
				cfg := reps[simnet.SplitSeed(pr.Seed, uint64(rep))]
				if switches == nil {
					stageHists[i].Merge(cfg.WaitHists[i])
					continue
				}
				for s, h := range cfg.SwitchWaitHists[i] {
					if rep == 0 {
						switches[i] = append(switches[i], &stats.Hist{})
					}
					switches[i][s].Merge(h)
					stageHists[i].Merge(h)
				}
			}
		}
		want, err := (&DriftMonitor{}).Check(&pr.Point.Cfg, stageHists)
		if err != nil {
			t.Fatal(err)
		}
		got := pr.Drift.Verdicts
		if len(got) < len(want.Verdicts) || !slices.Equal(got[:len(want.Verdicts)], want.Verdicts) {
			t.Fatalf("%s: stage verdicts %+v, Check on the pooled histograms gives %+v", pt.Label, got, want.Verdicts)
		}
		if switches == nil {
			if len(got) != base.Stages {
				t.Fatalf("fast point has %d verdicts, want %d", len(got), base.Stages)
			}
		} else {
			full, err := (&DriftMonitor{}).check(&pr.Point.Cfg, stageHists, switches)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) <= base.Stages || !slices.Equal(got, full.Verdicts) {
				t.Fatalf("graph verdicts %+v, want %+v", got, full.Verdicts)
			}
		}
		if pr.Drift.Drifted {
			t.Fatalf("%s: healthy point drifted: %+v", pt.Label, pr.Drift)
		}
		// A cache share was not checked by this run.
		prs, err = r.Run([]Point{pt})
		if err != nil {
			t.Fatal(err)
		}
		if prs[0].Drift != nil {
			t.Fatalf("%s: cache share carries a drift report", pt.Label)
		}
	}

	pt := calibratedPoint(2)
	pt.Cfg.Cycles = 4000
	prs, err := (&Runner{RootSeed: 5}).Run([]Point{pt})
	if err != nil {
		t.Fatal(err)
	}
	if prs[0].Drift != nil {
		t.Fatalf("point run without a monitor carries a drift report")
	}

	path := filepath.Join(t.TempDir(), "drift.ckpt")
	for pass, want := range []LedgerStatus{LedgerDone, LedgerResumed} {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		led := NewLedgerCollector()
		r := &Runner{RootSeed: 5, Journal: j, Drift: &DriftMonitor{}, Ledger: led}
		prs, err := r.Run([]Point{pt})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if got := led.Rows()[0].Status; got != want {
			t.Fatalf("pass %d settled %s, want %s", pass, got, want)
		}
		if (prs[0].Drift != nil) != (want == LedgerDone) {
			t.Fatalf("pass %d (%s): drift report %+v", pass, want, prs[0].Drift)
		}
	}

	sat := Point{Label: "saturated", Cfg: simnet.Config{
		K: 2, Stages: 2, P: 0.9, Cycles: 5000, Warmup: 100,
		AllowUnstable: true, MaxInFlight: 1, DrainCycles: 1,
	}}
	prs, err = (&Runner{RootSeed: 5, Drift: &DriftMonitor{}}).Run([]Point{sat})
	if err != nil {
		t.Fatal(err)
	}
	if !prs[0].Truncated() {
		t.Fatal("saturation guard did not trip")
	}
	if prs[0].Drift != nil {
		t.Fatalf("truncated point carries a drift report: %+v", prs[0].Drift)
	}
}
