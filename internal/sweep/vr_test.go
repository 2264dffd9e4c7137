package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"banyan/internal/simnet"
	"banyan/internal/topology"
	"banyan/internal/vr"
)

// vrBatteryPoints is a small grid with enough replications for the
// adaptive rules to have room to move.
func vrBatteryPoints(reps int) []Point {
	g := Grid{
		Ks: []int{2}, Ns: []int{4},
		Ps:     []float64{0.3, 0.55, 0.8},
		Cycles: 1200, Warmup: 150,
		Reps: reps,
	}
	pts, err := g.Points()
	if err != nil {
		panic(err)
	}
	return pts
}

// TestVROffBitIdentical pins the central contract of the VR layer: a
// nil plan and the zero plan reproduce the no-VR sweep bit for bit —
// same keys, same seeds, same per-replication results, same pooled
// statistics (the golden values) — and attach no estimate.
func TestVROffBitIdentical(t *testing.T) {
	base := &Runner{Parallelism: 4, RootSeed: 0x5eed}
	want, err := base.Run(goldenSweepPoints())
	if err != nil {
		t.Fatal(err)
	}
	checkSweepGolden(t, "no VR field", want)

	for name, plan := range map[string]*vr.Plan{"nil": nil, "zero": {}} {
		r := &Runner{Parallelism: 4, RootSeed: 0x5eed, VR: plan}
		got, err := r.Run(goldenSweepPoints())
		if err != nil {
			t.Fatal(err)
		}
		checkSweepGolden(t, name+" plan", got)
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Seed != want[i].Seed {
				t.Fatalf("%s plan: point %q key/seed diverged", name, got[i].Point.Label)
			}
			if !reflect.DeepEqual(got[i].Runs, want[i].Runs) {
				t.Fatalf("%s plan: point %q runs diverged from legacy", name, got[i].Point.Label)
			}
			if got[i].VR != nil {
				t.Fatalf("%s plan: point %q carries an estimate", name, got[i].Point.Label)
			}
		}
	}
}

// TestVRSweepDeterministicAcrossScheduling: a full plan — CRN, control
// variates, and CI-targeted stopping — yields identical replication
// counts, runs, and estimates at every worker count. Adaptive wave
// scheduling must not leak scheduling order into results.
func TestVRSweepDeterministicAcrossScheduling(t *testing.T) {
	plan := &vr.Plan{CRN: true, ControlVariates: true, TargetCI: 0.4, MaxReps: 32}
	var want []*PointResult
	for _, par := range []int{1, 4, 16} {
		r := &Runner{Parallelism: par, RootSeed: 0x5eed, VR: plan}
		got, err := r.Run(vrBatteryPoints(8))
		if err != nil {
			t.Fatal(err)
		}
		if snap := r.Counters().Snapshot(); !snap.Settled() {
			t.Fatalf("par=%d: counters not settled: %+v", par, snap)
		}
		if want == nil {
			want = got
			for _, pr := range got {
				if pr.VR == nil {
					t.Fatalf("point %q has no estimate", pr.Point.Label)
				}
				if pr.VR.Reps != len(pr.Runs) {
					t.Fatalf("point %q: estimate reps %d != runs %d", pr.Point.Label, pr.VR.Reps, len(pr.Runs))
				}
			}
			continue
		}
		for i := range got {
			g, w := got[i], want[i]
			if len(g.Runs) != len(w.Runs) {
				t.Fatalf("par=%d: point %q stopped at %d reps, want %d",
					par, g.Point.Label, len(g.Runs), len(w.Runs))
			}
			if !reflect.DeepEqual(g.Runs, w.Runs) {
				t.Fatalf("par=%d: point %q runs diverged", par, g.Point.Label)
			}
			if g.VR.Mean != w.VR.Mean || g.VR.HalfWidth != w.VR.HalfWidth || g.VR.Stopped != w.VR.Stopped {
				t.Fatalf("par=%d: point %q estimate diverged: %+v vs %+v",
					par, g.Point.Label, g.VR, w.VR)
			}
		}
	}
}

// TestVRUnbiasedAgainstPlain: every VR technique changes the noise, not
// the answer. Each single-technique sweep's estimate must agree with
// plain MC within the joint confidence interval.
func TestVRUnbiasedAgainstPlain(t *testing.T) {
	points := vrBatteryPoints(24)
	plain := &Runner{Parallelism: 4, RootSeed: 7}
	pres, err := plain.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	var none *vr.Plan

	for _, plan := range []*vr.Plan{
		{CRN: true},
		{ControlVariates: true},
		{CRN: true, ControlVariates: true},
	} {
		r := &Runner{Parallelism: 4, RootSeed: 7, VR: plan}
		vres, err := r.Run(points)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vres {
			ve := vres[i].VR
			if ve == nil {
				t.Fatalf("plan %v: point %q has no estimate", plan, vres[i].Point.Label)
			}
			pe := none.Estimate(&pres[i].Point.Cfg, pres[i].Runs)
			joint := math.Sqrt(ve.HalfWidth*ve.HalfWidth + pe.HalfWidth*pe.HalfWidth)
			if diff := math.Abs(ve.Mean - pe.Mean); diff > 3*joint {
				t.Errorf("plan %v: point %q VR mean %.5g vs plain %.5g differ by %.3g (> %.3g)",
					plan, vres[i].Point.Label, ve.Mean, pe.Mean, diff, 3*joint)
			}
			if ve.VarReduction < 1 {
				t.Errorf("plan %v: point %q variance increased: %+v", plan, vres[i].Point.Label, ve)
			}
		}
	}
}

// TestVRAdaptiveStopsEarlyAndCaps: a loose CI target stops points below
// the replication cap (marking them Stopped); an unattainable target
// runs every point to the cap.
func TestVRAdaptiveStopsEarlyAndCaps(t *testing.T) {
	points := vrBatteryPoints(64)

	loose := &Runner{Parallelism: 4, RootSeed: 3, VR: &vr.Plan{TargetCI: 2.0}}
	lres, err := loose.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	for _, pr := range lres {
		if pr.VR == nil {
			t.Fatalf("point %q has no estimate", pr.Point.Label)
		}
		if pr.VR.Stopped {
			stopped++
			if len(pr.Runs) >= 64 {
				t.Errorf("point %q marked stopped at the cap", pr.Point.Label)
			}
			if pr.VR.HalfWidth > 2.0 {
				t.Errorf("point %q stopped above target: hw=%g", pr.Point.Label, pr.VR.HalfWidth)
			}
		}
	}
	if stopped == 0 {
		t.Error("loose target stopped no point early")
	}
	if snap := loose.Counters().Snapshot(); !snap.Settled() {
		t.Errorf("adaptive counters not settled: %+v", snap)
	}

	tight := &Runner{Parallelism: 4, RootSeed: 3, VR: &vr.Plan{TargetCI: 1e-9}}
	tres, err := tight.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range tres {
		if len(pr.Runs) != 64 || pr.VR.Stopped {
			t.Errorf("point %q: unattainable target ran %d reps (stopped=%v), want the cap 64",
				pr.Point.Label, len(pr.Runs), pr.VR.Stopped)
		}
	}
}

// TestVRAdaptiveJournalResume: an adaptive sweep's journal restores the
// deterministically chosen replication counts without resimulating, and
// reproduces the same estimates.
func TestVRAdaptiveJournalResume(t *testing.T) {
	plan := &vr.Plan{CRN: true, TargetCI: 1.0, MaxReps: 32}
	points := vrBatteryPoints(8)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")

	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Parallelism: 4, RootSeed: 0x5eed, VR: plan, Journal: j1}
	want, err := r1.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r2 := &Runner{Parallelism: 1, RootSeed: 0x5eed, VR: plan, Journal: j2}
	got, err := r2.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if snap := r2.Counters().Snapshot(); snap.RepsDone != 0 {
		t.Fatalf("resume resimulated %d replications", snap.RepsDone)
	}
	if gb, wb := marshalRuns(t, got), marshalRuns(t, want); !bytes.Equal(gb, wb) {
		t.Fatal("resumed adaptive sweep is not byte-identical to the original run")
	}
	for i := range got {
		if len(got[i].Runs) != len(want[i].Runs) {
			t.Fatalf("point %q resumed with %d reps, want %d", got[i].Point.Label, len(got[i].Runs), len(want[i].Runs))
		}
		if got[i].VR == nil || got[i].VR.Mean != want[i].VR.Mean || got[i].VR.Stopped != want[i].VR.Stopped {
			t.Fatalf("point %q resumed estimate diverged: %+v vs %+v", got[i].Point.Label, got[i].VR, want[i].VR)
		}
	}
}

// TestVRSaltSeparatesArtifacts: VR and non-VR runs must never share
// artifacts. A shared cache serves hits only to runners with the same
// plan salt, and a journal written under one plan refuses to bind to a
// batch run under another.
func TestVRSaltSeparatesArtifacts(t *testing.T) {
	cache := NewCache()
	points := goldenSweepPoints()

	plainRunner := &Runner{Parallelism: 2, RootSeed: 0x5eed, Cache: cache}
	if _, err := plainRunner.Run(points); err != nil {
		t.Fatal(err)
	}

	// A CRN runner sharing the cache must miss every plain entry...
	crn := &Runner{Parallelism: 2, RootSeed: 0x5eed, Cache: cache, VR: &vr.Plan{CRN: true}}
	if _, err := crn.Run(points); err != nil {
		t.Fatal(err)
	}
	if snap := crn.Counters().Snapshot(); snap.PointsCached != 0 {
		t.Fatalf("CRN runner served %d points from the plain cache", snap.PointsCached)
	}
	// ...while a second CRN runner hits every CRN entry.
	crn2 := &Runner{Parallelism: 2, RootSeed: 0x5eed, Cache: cache, VR: &vr.Plan{CRN: true}}
	res, err := crn2.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if snap := crn2.Counters().Snapshot(); snap.PointsCached != int64(len(points)) {
		t.Fatalf("CRN rerun cached %d of %d points", snap.PointsCached, len(points))
	}
	for _, pr := range res {
		if pr.VR == nil {
			t.Fatalf("cached point %q lost its estimate", pr.Point.Label)
		}
	}

	// A CV-only plan post-processes identical runs: zero salt, so it
	// shares the plain artifacts (and attaches an estimate on the hit).
	cv := &Runner{Parallelism: 2, RootSeed: 0x5eed, Cache: cache, VR: &vr.Plan{ControlVariates: true}}
	cres, err := cv.Run(points)
	if err != nil {
		t.Fatal(err)
	}
	if snap := cv.Counters().Snapshot(); snap.PointsCached != int64(len(points)) {
		t.Fatalf("CV runner cached %d of %d plain points", snap.PointsCached, len(points))
	}
	for _, pr := range cres {
		if pr.VR == nil {
			t.Fatalf("CV cache hit %q carries no estimate", pr.Point.Label)
		}
	}

	// Journals carry the salt in their batch key: a journal written
	// without VR refuses to serve a VR batch.
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jr := &Runner{Parallelism: 2, RootSeed: 0x5eed, Journal: j1}
	if _, err := jr.Run(points); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	jvr := &Runner{Parallelism: 2, RootSeed: 0x5eed, Journal: j2, VR: &vr.Plan{CRN: true}}
	if _, err := jvr.Run(points); err == nil {
		t.Fatal("plain journal bound to a CRN batch")
	}
}

// TestVRReporterLine: the log reporter annotates VR points with their
// estimate so adaptive sweeps read correctly at a glance.
func TestVRReporterLine(t *testing.T) {
	pr := &PointResult{
		Point: Point{Label: "k=2/p=0.5"},
		VR:    &vr.Estimate{Mean: 1.2345, HalfWidth: 0.067, Reps: 12, Stopped: true},
	}
	var sb strings.Builder
	lr := NewLogReporter(&sb)
	lr.PointDone(pr, Progress{PointsDone: 1, PointsTotal: 1})
	line := sb.String()
	want := fmt.Sprintf("w=%.4g±%.3g @%d reps", 1.2345, 0.067, 12)
	if !strings.Contains(line, want) {
		t.Fatalf("reporter line %q missing %q", line, want)
	}
}

// TestControlVariatesSkipUnmodeledPoints: the stage-1 control variate
// regresses on the Theorem-1 mean, so it must apply exactly where the
// drift monitor checks stage 1. A blocking point and a stage-1 reroute
// point wait far longer than Theorem 1 predicts. Regressed on it, their
// estimates collapse towards the theorem's mean with a tight, wrong
// interval: 1.32 ± 0.012 for the blocking point, whose replications
// average 16.93. The message-count control stays valid on both (nothing
// is dropped), so the estimate may still move, but only within its
// interval.
func TestControlVariatesSkipUnmodeledPoints(t *testing.T) {
	graph := func(label string, cfg simnet.Config) Point {
		cfg.K, cfg.Stages, cfg.Cycles, cfg.Warmup = 2, 3, 4000, 200
		cfg.Topology = topology.Omega
		return Point{Label: label, Engine: Graph, Reps: 12, Cfg: cfg}
	}
	pts := []Point{
		graph("blocking p=0.6 B=1", simnet.Config{P: 0.6, StageBuffers: []int{1, 1, 1}}),
		graph("reroute p=0.5 stage-1 link", simnet.Config{P: 0.5,
			FailLinks: []simnet.LinkFail{{Stage: 1, Row: 3}}, FailPolicy: "reroute"}),
	}
	r := &Runner{Parallelism: 2, RootSeed: 7, VR: &vr.Plan{ControlVariates: true}}
	prs, err := r.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range prs {
		if pr.Err != nil || pr.Truncated() {
			t.Fatalf("%s: err %v, truncated %v", pr.Point.Label, pr.Err, pr.Truncated())
		}
		if _, _, err := pr.Point.Cfg.Stage1Law(); err == nil {
			t.Fatalf("%s: Theorem 1 claims to model the point", pr.Point.Label)
		}
		est := pr.VR
		if slices.Contains(est.Controls, "stage1-wait") {
			t.Errorf("%s: stage-1 control applied: %+v", pr.Point.Label, est)
		}
		if d := math.Abs(est.Mean - est.RawMean); d > est.HalfWidth {
			t.Errorf("%s: estimate %.4g ± %.3g, raw mean %.4g", pr.Point.Label, est.Mean, est.HalfWidth, est.RawMean)
		}
	}
}

// TestAdaptiveCancelBetweenWavesFails: cancellation that lands after a
// wave's last replication, while the CI target is still unmet, leaves
// the point unfinished. It fails with the cancellation and stays out of
// the cache and the journal. A journal entry holding such an early-wave
// count (earlier versions of the runner wrote one) is simulated again on
// resume.
func TestAdaptiveCancelBetweenWavesFails(t *testing.T) {
	plan := &vr.Plan{TargetCI: 1e-9, MinReps: 4, MaxReps: 12} // waves 4, 6, 9, 12
	pts := []Point{{Label: "k=2 n=2 p=0.3", Reps: 12,
		Cfg: simnet.Config{K: 2, Stages: 2, P: 0.3, Cycles: 300, Warmup: 30}}}
	clean, err := (&Runner{VR: plan}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean[0].Runs) != 12 {
		t.Fatalf("uninterrupted run settled at %d reps, want the cap 12", len(clean[0].Runs))
	}

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	r1 := &Runner{
		Parallelism: 2, VR: plan, Journal: j1, Cache: cache,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			res, err := simnet.RunEngine(ctx, e, cfg, nil)
			if done.Add(1) == 4 {
				cancel() // the first wave's last replication has finished
			}
			return res, err
		},
	}
	prs, err := r1.RunCtx(ctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error %v, want the cancellation", err)
	}
	pr := prs[0]
	if !errors.Is(pr.Err, context.Canceled) || pr.Agg != nil || pr.VR != nil {
		t.Fatalf("cut point settled as err=%v agg=%v vr=%+v, want a failed point", pr.Err, pr.Agg, pr.VR)
	}
	key := r1.artifactKey(pr.Key)
	if _, ok := cache.get(key); ok {
		t.Fatal("cut point was cached")
	}
	if _, ok := j1.get(key); ok {
		t.Fatal("cut point was journaled")
	}
	if snap := r1.Counters().Snapshot(); snap.PointsFailed != 1 || snap.RepsDone != 4 || !snap.Settled() {
		t.Fatalf("counters %+v, want one failed point after 4 reps", snap)
	}
	// Journal the cut as a complete point, the way earlier versions did.
	if err := j1.append(key, pr.Point.Label, clean[0].Runs[:4], nil); err != nil {
		t.Fatal(err)
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r2 := &Runner{Parallelism: 2, VR: plan, Journal: j2}
	got, err := r2.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	if snap := r2.Counters().Snapshot(); snap.PointsResumed != 0 || snap.RepsDone != 12 {
		t.Fatalf("resume served the early-wave entry: %+v", snap)
	}
	if !reflect.DeepEqual(got[0].Runs, clean[0].Runs) || got[0].VR.Mean != clean[0].VR.Mean {
		t.Fatalf("resumed point (%d reps, mean %g) differs from the uninterrupted run (%d reps, mean %g)",
			len(got[0].Runs), got[0].VR.Mean, len(clean[0].Runs), clean[0].VR.Mean)
	}
}
