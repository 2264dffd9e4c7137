package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"banyan/internal/experiments"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/stats"
	"banyan/internal/sweep"
	"banyan/internal/topology"
	"banyan/internal/vr"
)

// repConfig is one (point, replication) configuration of a pass.
type repConfig struct {
	label  string
	engine sweep.Engine
	cfg    simnet.Config
}

// repConfigs returns the distinct (point, replication) configurations of
// a pass in batch order, each with its replication's seed.
func repConfigs(prs []*sweep.PointResult) []repConfig {
	var out []repConfig
	seen := map[uint64]bool{}
	for _, pr := range prs {
		if seen[pr.Key] {
			continue
		}
		seen[pr.Key] = true
		for rep := range pr.Runs {
			cfg := pr.Point.Cfg
			cfg.Seed = simnet.SplitSeed(pr.Seed, uint64(rep))
			out = append(out, repConfig{label: fmt.Sprintf("%s#%d", pr.Point.Label, rep), engine: pr.Point.Engine, cfg: cfg})
		}
	}
	return out
}

// sample picks up to n evenly spaced entries.
func sample[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// msgStagesPerCycle is the offered message-stage work of one cycle.
func msgStagesPerCycle(cfg *simnet.Config) float64 {
	rows := min(intPow(cfg.K, cfg.Stages), 4096)
	return float64(rows) * cfg.P * float64(max(cfg.Bulk, 1)) * float64(cfg.Stages)
}

// shorten cuts a configuration to about target message-stages of work,
// keeping its warm-up share. It never lengthens a run.
func shorten(cfg simnet.Config, target float64) simnet.Config {
	have := float64(cfg.Cycles + cfg.Warmup)
	f := target / msgStagesPerCycle(&cfg) / have
	if f >= 1 {
		return cfg
	}
	cfg.Cycles = max(5, int(float64(cfg.Cycles)*f))
	cfg.Warmup = max(2, int(float64(cfg.Warmup)*f))
	return cfg
}

// stageForm strips the graph- and literal-engine knobs, leaving a
// configuration the stage-model engines (kernel, lanes, reference) run.
func stageForm(cfg simnet.Config) simnet.Config {
	cfg.Topology, cfg.StageBuffers, cfg.FailLinks, cfg.FailPolicy = "", nil, nil, ""
	cfg.TrackSwitches, cfg.SatDepth, cfg.SwitchWaitHists = false, 0, nil
	cfg.BufferCap, cfg.TrackOccupancy = 0, false
	cfg.Probe, cfg.WaitHists = nil, nil
	return cfg
}

// runEngine runs one replication on an engine, through wrap's view of a
// fresh trace stream when wrap is non-nil.
func runEngine(e sweep.Engine, cfg *simnet.Config, wrap func(simnet.ArrivalSource) simnet.ArrivalSource) (*simnet.Result, error) {
	st, err := simnet.NewTraceStream(cfg, 0)
	if err != nil {
		return nil, err
	}
	var src simnet.ArrivalSource = st
	if wrap != nil {
		src = wrap(st)
	}
	switch e {
	case sweep.Reference:
		return simnet.RunSource(cfg, src)
	case sweep.Graph:
		return simnet.RunGraphSource(cfg, src)
	case sweep.Literal:
		return simnet.RunLiteralSource(cfg, src)
	}
	return simnet.RunKernelSource(cfg, src)
}

// timedSource is an ArrivalSource decorator that times Next and counts
// the messages it delivers.
type timedSource struct {
	simnet.ArrivalSource
	ns, msgs int64
}

func (s *timedSource) Next() (*simnet.TraceBlock, error) {
	t0 := time.Now()
	b, err := s.ArrivalSource.Next()
	s.ns += time.Since(t0).Nanoseconds()
	if b != nil {
		s.msgs += int64(b.Len())
	}
	return b, err
}

// rung accumulates the calls of one ladder rung.
type rung struct {
	ns, nextNS   int64 // call time, and the part of it spent in ArrivalSource.Next
	msgs         int64 // messages the source delivered
	msgStages    int64 // offered messages × stages
	allocs, byts uint64
	calls        int
}

func (r *rung) add(o rung) {
	r.ns += o.ns
	r.nextNS += o.nextNS
	r.msgs += o.msgs
	r.msgStages += o.msgStages
	r.allocs += o.allocs
	r.byts += o.byts
	r.calls += o.calls
}

// selfNSPerMsgStage is the engine's own time per message-stage: call time
// minus trace generation.
func (r *rung) selfNSPerMsgStage() float64 {
	return ratio(float64(r.ns-r.nextNS), float64(r.msgStages))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timeCall runs one engine call, timing it and counting its heap
// allocations. The ladder runs on one goroutine while nothing else
// allocates, so the allocation deltas belong to the call.
func timeCall(e sweep.Engine, cfg *simnet.Config) (rung, *simnet.Result, error) {
	var src *timedSource
	wrap := func(s simnet.ArrivalSource) simnet.ArrivalSource {
		src = &timedSource{ArrivalSource: s}
		return src
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := runEngine(e, cfg, wrap)
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return rung{}, nil, err
	}
	return rung{ns: ns, nextNS: src.ns, msgs: src.msgs, msgStages: res.Offered * int64(cfg.Stages),
		allocs: m1.Mallocs - m0.Mallocs, byts: m1.TotalAlloc - m0.TotalAlloc, calls: 1}, res, nil
}

// Ladder rung names.
const (
	rKernel    = "kernel"    // RunKernelSource on the configuration
	rKernel2   = "kernel2"   // RunKernelSource on its second seed
	rLanes     = "lanes"     // RunLanes on both seeds at once
	rReference = "reference" // RunSource
	rGraph     = "graph"     // RunGraphSource, committed omega
	rBlocking  = "blocking"  // RunGraphSource with finite stage buffers
	rLiteral   = "literal"   // RunLiteralSource
	rBare      = "bare"      // RunKernelSource again, the observability baseline
	rProbe     = "probe"     // with Config.Probe
	rHists     = "hists"     // with Probe.Hists
	rTracer    = "tracer"    // with Probe.Tracer
	rWaitHists = "waithists" // with Config.WaitHists
)

// ladderResult holds, for each rung and sampled configuration, the
// fastest of the rounds' calls: the calls repeat identical work, so the
// fastest one is the least disturbed by other processes.
type ladderResult struct {
	best       map[string][]rung
	driftNS    int64
	driftCalls int
	liveHists  *obs.HistSet // populated by the hists rung, for exposition fill-ins
}

func (lr *ladderResult) keep(name string, ci int, r rung) {
	b := lr.best[name]
	for len(b) <= ci {
		b = append(b, rung{})
	}
	if b[ci].calls == 0 || r.ns < b[ci].ns {
		b[ci] = r
	}
	lr.best[name] = b
}

// total sums a rung's best calls over the configurations that also ran
// rung on ("" = all of them).
func (lr *ladderResult) total(name, on string) rung {
	var t rung
	for ci, r := range lr.best[name] {
		if on == "" || (ci < len(lr.best[on]) && lr.best[on][ci].calls > 0) {
			t.add(r)
		}
	}
	return t
}

// runLadder calls each sampled configuration directly on every engine and
// with each observability field set, in rounds until the budget is spent
// (at least three rounds). Configurations are shortened to ladderWork
// message-stages so a round stays short.
func runLadder(cfgs []repConfig, budget time.Duration) (*ladderResult, error) {
	const ladderWork = 1_000_000
	lr := &ladderResult{best: map[string][]rung{}, liveHists: obs.NewHistSet()}
	deadline := time.Now().Add(budget)
	drift := &sweep.DriftMonitor{}
	for round := 0; round < 50 && (round < 3 || time.Now().Before(deadline)); round++ {
		for ci, rc := range cfgs {
			if err := lr.round(ci, rc, ladderWork, drift); err != nil {
				return nil, fmt.Errorf("ladder %s: %w", rc.label, err)
			}
		}
	}
	return lr, nil
}

func (lr *ladderResult) round(ci int, rc repConfig, work float64, drift *sweep.DriftMonitor) error {
	kc := shorten(stageForm(rc.cfg), work)
	kc2 := kc
	kc2.Seed = simnet.SplitSeed(kc.Seed, 1)
	call := func(name string, e sweep.Engine, cfg *simnet.Config) error {
		r, _, err := timeCall(e, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lr.keep(name, ci, r)
		return nil
	}

	if err := call(rKernel, sweep.Fast, &kc); err != nil {
		return err
	}
	if err := call(rKernel2, sweep.Fast, &kc2); err != nil {
		return err
	}
	if err := call(rReference, sweep.Reference, &kc); err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, errs := simnet.RunLanes([]*simnet.Config{&kc, &kc2})
	ns := time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&m1)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("lanes: %w", err)
		}
	}
	lr.keep(rLanes, ci, rung{ns: ns, msgStages: (res[0].Offered + res[1].Offered) * int64(kc.Stages),
		allocs: m1.Mallocs - m0.Mallocs, byts: m1.TotalAlloc - m0.TotalAlloc, calls: 2})

	if intPow(kc.K, kc.Stages) <= 4096 {
		gc := kc
		gc.Topology = topology.Omega
		if err := call(rGraph, sweep.Graph, &gc); err != nil {
			return err
		}
		bc := gc
		if rc.engine == sweep.Graph && len(rc.cfg.StageBuffers) > 0 {
			bc = shorten(rc.cfg, work)
		} else {
			bc.StageBuffers = make([]int, kc.Stages)
			for i := range bc.StageBuffers {
				bc.StageBuffers[i] = 4
			}
		}
		if err := call(rBlocking, sweep.Graph, &bc); err != nil {
			return err
		}
	}
	lc := kc
	if rc.engine == sweep.Literal {
		lc = shorten(rc.cfg, work)
	} else {
		lc.BufferCap = 4
	}
	if err := call(rLiteral, sweep.Literal, &lc); err != nil {
		return err
	}

	// Observability rung: the same configuration once more bare, then with
	// each field set. Each field's cost is its call minus the call it adds
	// to (bare for Probe and WaitHists, Probe alone for Hists and Tracer).
	if err := call(rBare, sweep.Fast, &kc); err != nil {
		return err
	}
	pc := kc
	pc.Probe = obs.NewSimProbe()
	if err := call(rProbe, sweep.Fast, &pc); err != nil {
		return err
	}
	hc := kc
	hc.Probe = obs.NewSimProbe()
	hc.Probe.Hists = lr.liveHists
	if err := call(rHists, sweep.Fast, &hc); err != nil {
		return err
	}
	tc := kc
	tc.Probe = obs.NewSimProbe()
	tc.Probe.Tracer = obs.NewTracer(64, 4096)
	if err := call(rTracer, sweep.Fast, &tc); err != nil {
		return err
	}
	wc := kc
	wc.WaitHists = make([]*stats.Hist, kc.Stages)
	for i := range wc.WaitHists {
		wc.WaitHists[i] = &stats.Hist{}
	}
	if err := call(rWaitHists, sweep.Fast, &wc); err != nil {
		return err
	}
	// Replay the exact histograms through the drift monitor's check.
	t0 = time.Now()
	drift.Check(&kc, wc.WaitHists) //nolint:errcheck // an ineligible configuration is reported, not failed; only the time matters
	lr.driftNS += time.Since(t0).Nanoseconds()
	lr.driftCalls++
	return nil
}

// timeEach runs f over every item, repeating until at least minDur has
// passed, and returns the mean ns per item.
func timeEach[T any](items []T, minDur time.Duration, f func(T)) float64 {
	if len(items) == 0 {
		return 0
	}
	var n int
	t0 := time.Now()
	for n == 0 || time.Since(t0) < minDur {
		for _, it := range items {
			f(it)
		}
		n += len(items)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// fillIns measures, directly, the layers a workload's own passes do not
// exercise, so every per-layer metric is measured on every workload:
// journal writes and reads, ledger building, OpenMetrics rendering, the
// metric-history store and the experiments layer's analytic rows and
// rendering, all on the workload's own results.
type fillIns struct {
	journalBytesPerPoint, journalOpenMS, resumeUSPerPoint float64
	ledgerMS, scrapeUS, tsdbUS                            float64
	experimentsMS, renderMS                               float64
}

func measureFillIns(ctx context.Context, w *workload, first *passOut, lr *ladderResult) (*fillIns, error) {
	fi := &fillIns{}

	// Journal: shortened copies of sampled points, written by one runner
	// and resumed by another.
	var pts []sweep.Point
	for _, p := range sample(w.points, 12) {
		p.Cfg = shorten(p.Cfg, 200_000)
		pts = append(pts, p)
	}
	dir, err := os.MkdirTemp("", "banyanbench-fill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "journal")
	j, err := sweep.OpenJournal(path)
	if err != nil {
		return nil, err
	}
	r := w.newRunner()
	r.Journal = j
	_, err = r.RunCtx(ctx, pts)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("journal fill-in: %w", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	fi.journalBytesPerPoint = float64(st.Size()) / float64(len(pts))
	t0 := time.Now()
	j2, err := sweep.OpenJournal(path)
	fi.journalOpenMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return nil, err
	}
	r2 := w.newRunner()
	r2.Journal = j2
	t0 = time.Now()
	_, err = r2.RunCtx(ctx, pts)
	fi.resumeUSPerPoint = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(pts))
	if cerr := j2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("journal fill-in resume: %w", err)
	}

	// Ledger: every settled point of the first pass, observed by a fresh
	// collector.
	col := sweep.NewLedgerCollector()
	for _, pr := range first.results {
		col.Observe(pr, sweep.LedgerDone)
	}
	lrun := w.newRunner()
	lrun.Ledger = col
	fi.ledgerMS = timeEach([]int{0}, 20*time.Millisecond, func(int) { lrun.BuildLedger() }) / 1e6

	// Exposition: the first pass's counters, the ladder's live histograms
	// and the process read-outs, as an operator's registry holds them.
	reg := obs.NewRegistry()
	first.runners[0].Counters().Register(reg)
	lr.liveHists.Register(reg, "wait")
	obs.RegisterRuntimeMetrics(reg)
	fams := histFamilies(lr.liveHists)
	var scrapeErr error
	fi.scrapeUS = timeEach([]int{0}, 20*time.Millisecond, func(int) {
		if err := obs.WriteOpenMetrics(io.Discard, reg, fams); err != nil {
			scrapeErr = err
		}
	}) / 1e3
	if scrapeErr != nil {
		return nil, fmt.Errorf("openmetrics fill-in: %w", scrapeErr)
	}
	tsdb := obs.NewTSDB(reg, 120)
	fi.tsdbUS = timeEach([]int{0}, 20*time.Millisecond, func(int) { tsdb.Sample() }) / 1e3

	// Experiments layer: the workload's analytic points as a paper-layout
	// stage table (ANALYSIS and ESTIMATE rows), then rendered.
	t0 = time.Now()
	tab := stageTable(first.results)
	fi.experimentsMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	t0 = time.Now()
	if err := tab.Render(io.Discard); err != nil {
		return nil, fmt.Errorf("render fill-in: %w", err)
	}
	fi.renderMS = float64(time.Since(t0).Nanoseconds()) / 1e6
	return fi, nil
}

// stageTable lays out the analytic points of a pass as a Table I–V style
// table: per-stage simulated waits beside the exact first-stage analysis
// and the Section IV estimate.
func stageTable(prs []*sweep.PointResult) *experiments.StageTable {
	t := &experiments.StageTable{Name: "bench", Caption: "analytic points"}
	md := stages.DefaultModel()
	for _, pr := range prs {
		_, _, _, m, ok := analytic(&pr.Point.Cfg)
		if !ok || pr.Agg == nil {
			continue
		}
		col := experiments.StageColumn{Label: pr.Point.Label, Stages: pr.Point.Cfg.Stages}
		for s := 1; s <= col.Stages; s++ {
			mean, _ := pr.Agg.StageMeanWait(s)
			col.SimW = append(col.SimW, mean)
			col.SimV = append(col.SimV, pr.Runs[0].StageWait[s-1].Variance())
		}
		p := stages.Params{K: pr.Point.Cfg.K, M: m, P: pr.Point.Cfg.P}
		col.AnalysisW, col.AnalysisV = md.FirstStageMean(p), md.FirstStageVar(p)
		col.EstimateW, col.EstimateV = md.LimitMeanWait(p), md.LimitVarWait(p)
		t.Columns = append(t.Columns, col)
	}
	return t
}

// replayCosts times the per-point work the runner does after a point's
// replications finish, replayed on the first pass's results: the
// variance-reduced estimate and the replication merge.
func replayCosts(prs []*sweep.PointResult) (vrUS, mergeUS float64) {
	var ok []*sweep.PointResult
	for _, pr := range prs {
		if pr.Err == nil && len(pr.Runs) > 0 {
			ok = append(ok, pr)
		}
	}
	plan := &vr.Plan{CRN: true, ControlVariates: true}
	vrUS = timeEach(ok, 20*time.Millisecond, func(pr *sweep.PointResult) { plan.Estimate(&pr.Point.Cfg, pr.Runs) }) / 1e3
	mergeUS = timeEach(ok, 20*time.Millisecond, func(pr *sweep.PointResult) { simnet.Aggregate(pr.Runs, pr.Point.Cfg.Stages) }) / 1e3
	return vrUS, mergeUS
}
