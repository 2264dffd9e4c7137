package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"banyan/internal/experiments"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/sweep"
	"banyan/internal/topology"
	"banyan/internal/traffic"
	"banyan/internal/vr"
)

// workloadNames lists the workloads in the order "--workload all" runs
// them. Why each exists is in README.md and in its constructor below.
var workloadNames = []string{"paper_quick", "deep_heavy", "sweep_small", "topology_true"}

// workload is one fixed set of simulation inputs, derived from the seed,
// run as a closed loop: a batch of points goes to a sweep.Runner whose
// workers each take their next job only when the current one finishes.
type workload struct {
	name  string
	seed  uint64  // root seed of every runner, derived from --seed
	tiny  bool    // the tests' smoke size instead of the benchmark's
	scale float64 // multiplies every measured cycle count: 1, or tinyScale
	par   int     // sweep worker count

	// points is the batch the passes run, made by build. paper_quick's
	// experiments build their own batches; its points are the paper's
	// total-delay operating points, used for set-up only.
	points []sweep.Point
	build  func() []sweep.Point
	// obs lists the engine-side observability the passes attach, for the
	// layer-separation table.
	obs obsFields
	// pass runs one timed pass on fresh runners and caches.
	pass func(ctx context.Context, tr *tracer, parent int, req string) (*passOut, error)
}

// obsFields names the engine-side observability a workload attaches.
type obsFields struct{ probe, hists, tracer, waitHists bool }

// passOut is what one pass produced.
type passOut struct {
	// results holds every settled point of the pass: the batch for a
	// runner workload, every reported point (cache hits included) for
	// paper_quick.
	results []*sweep.PointResult
	// resumed is sweep_small's second half: the same batch served from
	// the journal the first half wrote.
	resumed      []*sweep.PointResult
	runners      []*sweep.Runner
	journalBytes int64
}

// parallelism is the sweep worker count: two, or fewer on a machine with
// fewer CPUs, so the benchmark never runs more workers than cores.
func parallelism() int { return min(2, runtime.NumCPU()) }

// tinyScale is the measured-cycle scale of the tests' smoke size. Warm-up
// lengths are not scaled: the stage-1 check needs a warmed-up queue at
// every size.
const tinyScale = 0.02

// newWorkload builds a workload from the seed, at the benchmark's size or,
// with tiny, at the tests' smoke size.
func newWorkload(name string, seed uint64, tiny bool) (*workload, error) {
	idx := slices.Index(workloadNames, name)
	if idx < 0 {
		return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, workloadNames)
	}
	w := &workload{name: name, seed: simnet.SplitSeed(seed, uint64(idx+1)), tiny: tiny, scale: 1, par: parallelism()}
	if tiny {
		w.scale = tinyScale
	}
	switch name {
	case "paper_quick":
		w.build, w.pass = w.paperPoints, w.paperPass
		w.obs = obsFields{probe: true, hists: true, tracer: true, waitHists: true}
	case "deep_heavy":
		w.build, w.pass = w.deepHeavyPoints, w.batchPass
	case "sweep_small":
		w.build, w.pass = w.sweepSmallPoints, w.sweepSmallPass
	case "topology_true":
		w.build, w.pass = w.topologyPoints, w.batchPass
	}
	w.points = w.build()
	return w, nil
}

// cycles scales a measured cycle count, keeping at least floor.
func (w *workload) cycles(base, floor int) int {
	return max(floor, int(float64(base)*w.scale))
}

func (w *workload) newRunner() *sweep.Runner {
	return &sweep.Runner{Parallelism: w.par, RootSeed: w.seed, Cache: sweep.NewCache()}
}

// runBatch runs the workload's batch on r inside a Runner.RunCtx span.
// Per-point failures stay in the results, where the checks count them;
// only a batch-level failure (invalid points, a journal mismatch) is
// returned as an error.
func runBatch(ctx context.Context, r *sweep.Runner, points []sweep.Point, tr *tracer, parent int, req string) ([]*sweep.PointResult, error) {
	id := tr.begin("Runner.RunCtx", parent, req)
	prs, err := r.RunCtx(ctx, points)
	tr.end(id)
	if prs == nil && err != nil {
		return nil, err
	}
	return prs, nil
}

// deepHeavyPoints builds deep_heavy: two long, deep, near-saturation
// points, observability off. Both networks have 4096 rows, so the
// in-flight working set and the schedule rings are large; the batch
// kernel and trace generation take almost all the time and a kernel gain
// shows here first. Cycle counts balance the two points' jobs, so
// neither worker idles at the end.
func (w *workload) deepHeavyPoints() []sweep.Point {
	m4, _ := traffic.ConstService(4)
	return []sweep.Point{
		{Label: "deep/k=2,n=12,p=0.85", Reps: 2, Cfg: simnet.Config{K: 2, Stages: 12, P: 0.85,
			Cycles: w.cycles(450, 30), Warmup: 100}},
		{Label: "deep/k=4,n=6,p=0.2,m=4", Reps: 2, Cfg: simnet.Config{K: 4, Stages: 6, P: 0.2, Service: m4,
			Cycles: w.cycles(4400, 100), Warmup: 300}},
	}
}

func (w *workload) batchPass(ctx context.Context, tr *tracer, parent int, req string) (*passOut, error) {
	r := w.newRunner()
	prs, err := runBatch(ctx, r, w.points, tr, parent, req)
	if err != nil {
		return nil, err
	}
	return &passOut{results: prs, runners: []*sweep.Runner{r}}, nil
}

// sweepSmallPoints builds sweep_small: a capacity-planning grid of short
// points — k ∈ {2,4,8}, n ∈ {2,3,4} with at most 64 rows, twenty loads,
// m ∈ {1,2}, four replications each — on a runner with a journal, a
// ledger, a drift monitor and CRN plus control variates; then a fresh
// runner resumes the same batch from the journal. Per-point fixed costs
// (hashing, scheduling, journal appends and reads, KS tests, the VR
// estimate, arena set-up) dominate and the kernel does little. Loads
// stop at ρ = 0.78 so a 100-cycle warm-up reaches steady state at stage
// 1.
func (w *workload) sweepSmallPoints() []sweep.Point {
	m2, _ := traffic.ConstService(2)
	var pts []sweep.Point
	for _, kn := range [][2]int{{2, 2}, {2, 3}, {2, 4}, {4, 2}, {4, 3}, {8, 2}} {
		for _, m := range []int{1, 2} {
			for i := 1; i <= 20; i++ {
				rho := 0.039 * float64(i)
				cfg := simnet.Config{K: kn[0], Stages: kn[1], P: rho / float64(m),
					Cycles: w.cycles(120, 40), Warmup: 100}
				if m == 2 {
					cfg.Service = m2
				}
				pts = append(pts, sweep.Point{
					Label: fmt.Sprintf("small/k=%d,n=%d,m=%d,rho=%.3f", kn[0], kn[1], m, rho),
					Cfg:   cfg, Reps: 4,
				})
			}
		}
	}
	return pts
}

func (w *workload) sweepSmallRunner() *sweep.Runner {
	r := w.newRunner()
	r.Ledger = sweep.NewLedgerCollector()
	r.Drift = &sweep.DriftMonitor{}
	r.VR = &vr.Plan{CRN: true, ControlVariates: true}
	return r
}

func (w *workload) sweepSmallPass(ctx context.Context, tr *tracer, parent int, req string) (out *passOut, err error) {
	dir, err := os.MkdirTemp("", "banyanbench-journal-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	path := filepath.Join(dir, "journal")

	openJournal := func(name string) (*sweep.Journal, error) {
		id := tr.begin(name, parent, req)
		defer tr.end(id)
		return sweep.OpenJournal(path)
	}
	j, err := openJournal("OpenJournal")
	if err != nil {
		return nil, err
	}
	fresh := w.sweepSmallRunner()
	fresh.Journal = j
	prs, err := runBatch(ctx, fresh, w.points, tr, parent, req)
	if cerr := j.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close journal: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}

	j2, err := openJournal("OpenJournal.resume")
	if err != nil {
		return nil, err
	}
	resume := w.sweepSmallRunner()
	resume.Journal = j2
	resumed, err := runBatch(ctx, resume, w.points, tr, parent, req+"/resume")
	if cerr := j2.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close journal: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	id := tr.begin("BuildLedger", parent, req)
	fresh.BuildLedger()
	tr.end(id)
	return &passOut{results: prs, resumed: resumed, runners: []*sweep.Runner{fresh, resume}, journalBytes: fi.Size()}, nil
}

// topologyPoints builds topology_true: one batch on the graph and
// literal engines — the only workload that runs graph.go and
// packetsim.go, the two files the wiring-as-data and
// one-finite-buffer-engine refactors rewrite.
func (w *workload) topologyPoints() []sweep.Point {
	n8 := func(b int) []int { return []int{b, b, b, b, b, b, b, b} }
	const wu = 500
	return []sweep.Point{
		{Label: "topo/omega,committed", Engine: sweep.Graph, Reps: 2, Cfg: simnet.Config{
			K: 2, Stages: 8, P: 0.5, Topology: topology.Omega, Cycles: w.cycles(6000, 150), Warmup: wu}},
		{Label: "topo/butterfly,hot=0.01", Engine: sweep.Graph, Reps: 2, Cfg: simnet.Config{
			K: 2, Stages: 8, P: 0.3, HotModule: 0.01, Topology: topology.Butterfly, TrackSwitches: true,
			Cycles: w.cycles(11000, 150), Warmup: wu}},
		{Label: "topo/butterfly,blocking", Engine: sweep.Graph, Reps: 2, Cfg: simnet.Config{
			K: 2, Stages: 8, P: 0.5, Topology: topology.Butterfly, StageBuffers: n8(4),
			Cycles: w.cycles(4000, 100), Warmup: wu}},
		{Label: "topo/butterfly,blocking,failed-link", Engine: sweep.Graph, Reps: 2, Cfg: simnet.Config{
			K: 2, Stages: 8, P: 0.5, Topology: topology.Butterfly, StageBuffers: n8(4),
			FailLinks: []simnet.LinkFail{{Stage: 4, Row: 37}}, FailPolicy: "reroute",
			Cycles: w.cycles(4000, 100), Warmup: wu}},
		{Label: "topo/literal,buffers=4", Engine: sweep.Literal, Reps: 2, Cfg: simnet.Config{
			K: 2, Stages: 6, P: 0.6, BufferCap: 4, TrackOccupancy: true,
			Cycles: w.cycles(22000, 200), Warmup: 600}},
	}
}

// paperPoints builds the points paper_quick's set-up validates and warms
// up with: the paper's total-delay operating points. Its passes run the
// experiments, which build their own batches.
func (w *workload) paperPoints() []sweep.Point {
	var pts []sweep.Point
	for _, tc := range experiments.TotalCases() {
		for _, n := range []int{3, 6, 9, 12} {
			cfg := simnet.Config{K: tc.K, Stages: n, P: tc.P, Cycles: w.cycles(400, 40), Warmup: 300}
			if tc.M > 1 {
				cfg.Service, _ = traffic.ConstService(tc.M)
			}
			pts = append(pts, sweep.Point{Label: fmt.Sprintf("%s/n=%d", tc.Table, n), Cfg: cfg})
		}
	}
	return pts
}

// paperScale is the experiments scale of one paper_quick pass.
func (w *workload) paperScale() experiments.Scale {
	sc := experiments.Quick()
	sc.TargetMessages = w.cycles(20_000, 500)
	sc.WarmupCycles = 100
	sc.Seed = w.seed
	sc.Parallelism = w.par
	return sc
}

type renderer interface{ Render(io.Writer) error }

func asRenderer[T renderer](f func(experiments.Scale) (T, error)) func(experiments.Scale) (renderer, error) {
	return func(sc experiments.Scale) (renderer, error) { return f(sc) }
}

// paperExperiment is one table or figure of the paper.
type paperExperiment struct {
	name string
	run  func(experiments.Scale) (renderer, error)
	// tiny marks the experiments the smoke size keeps: the experiments
	// simulate at least 200 cycles per point, so it keeps small networks
	// only, and Table VII with Figure 3, which shares its points.
	tiny bool
}

var paperExperiments = []paperExperiment{
	{"experiments.TableI", asRenderer(experiments.TableI), true},
	{"experiments.TableII", asRenderer(experiments.TableII), false},
	{"experiments.TableIII", asRenderer(experiments.TableIII), false},
	{"experiments.TableIV", asRenderer(experiments.TableIV), false},
	{"experiments.TableV", asRenderer(experiments.TableV), false},
	{"experiments.TableVI", asRenderer(experiments.TableVI), true},
	{"experiments.TableVII", asRenderer(experiments.TableVII), true},
	{"experiments.TableVIII", asRenderer(experiments.TableVIII), false},
	{"experiments.TableIX", asRenderer(experiments.TableIX), false},
	{"experiments.TableX", asRenderer(experiments.TableX), false},
	{"experiments.TableXI", asRenderer(experiments.TableXI), false},
	{"experiments.TableXII", asRenderer(experiments.TableXII), false},
	{"experiments.Figure3", asRenderer(experiments.Figure3), true},
	{"experiments.Figure4", asRenderer(experiments.Figure4), false},
	{"experiments.Figure5", asRenderer(experiments.Figure5), false},
	{"experiments.Figure6", asRenderer(experiments.Figure6), false},
	{"experiments.Figure7", asRenderer(experiments.Figure7), false},
	{"experiments.Figure8", asRenderer(experiments.Figure8), false},
}

// collector is a sweep.Reporter keeping every reported point.
type collector struct {
	mu  sync.Mutex
	prs []*sweep.PointResult
}

func (c *collector) PointDone(pr *sweep.PointResult, _ sweep.Progress) {
	c.mu.Lock()
	c.prs = append(c.prs, pr)
	c.mu.Unlock()
}

// paperPass runs Tables I–XII then Figures 3–8 through one shared runner
// with a point cache (the figures reuse the total-table points), with the
// operator's observability stack on: a probe with live histograms and a
// 1-in-64 message tracer, a drift monitor, a ledger, an event ring, a
// metric-history store sampled every 250 ms and an in-process scraper
// rendering OpenMetrics every 250 ms. The scale is below
// experiments.Quick so that a pass takes a few seconds.
func (w *workload) paperPass(ctx context.Context, tr *tracer, parent int, req string) (*passOut, error) {
	r := w.newRunner()
	probe := obs.NewSimProbe()
	probe.Hists = obs.NewHistSet()
	probe.Tracer = obs.NewTracer(64, 4096)
	r.Probe = probe
	r.Drift = &sweep.DriftMonitor{}
	r.Ledger = sweep.NewLedgerCollector()
	r.Events = obs.NewRingSink(256)
	col := &collector{}
	r.Reporter = col

	reg := obs.NewRegistry()
	r.Counters().Register(reg)
	probe.Register(reg)
	probe.Hists.Register(reg, "wait")
	r.Drift.Register(reg)
	obs.RegisterRuntimeMetrics(reg)
	scr := startScraper(reg, probe.Hists, obs.NewTSDB(reg, 120), tr, parent, req)

	sc := w.paperScale()
	sc.Runner = r
	sc.Ctx = ctx
	var err error
	for _, e := range paperExperiments {
		if w.tiny && !e.tiny {
			continue
		}
		busy := r.Counters().Snapshot().Elapsed
		id := tr.begin(e.name, parent, req)
		var out renderer
		out, err = e.run(sc)
		tr.endInner(id, r.Counters().Snapshot().Elapsed-busy)
		if err != nil {
			err = fmt.Errorf("%s: %w", e.name, err)
			break
		}
		id = tr.begin("Render", parent, req)
		err = out.Render(io.Discard)
		tr.end(id)
		if err != nil {
			err = fmt.Errorf("%s: render: %w", e.name, err)
			break
		}
	}
	if serr := scr.close(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	id := tr.begin("BuildLedger", parent, req)
	r.BuildLedger()
	tr.end(id)
	return &passOut{results: col.prs, runners: []*sweep.Runner{r}}, nil
}

// scraper samples the metric-history store and renders an OpenMetrics
// page every 250 ms, as an operator's scraper would, until close.
type scraper struct {
	stop chan struct{}
	wg   sync.WaitGroup
	err  error // first exposition error; read after wg.Wait
}

func startScraper(reg *obs.Registry, hists *obs.HistSet, tsdb *obs.TSDB, tr *tracer, parent int, req string) *scraper {
	s := &scraper{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				id := tr.begin("TSDB.Sample", parent, req)
				tsdb.Sample()
				tr.end(id)
				id = tr.begin("WriteOpenMetrics", parent, req)
				err := obs.WriteOpenMetrics(io.Discard, reg, histFamilies(hists))
				tr.end(id)
				if err != nil && s.err == nil {
					s.err = fmt.Errorf("openmetrics: %w", err)
				}
			}
		}
	}()
	return s
}

func (s *scraper) close() error {
	close(s.stop)
	s.wg.Wait()
	return s.err
}

// histFamilies exposes live waiting-time histograms the way the debug
// server's /metrics page does: one family with a stage label.
func histFamilies(hists *obs.HistSet) []obs.HistFamily {
	const help = "waiting time per measured message, in cycles"
	fams := []obs.HistFamily{{Name: "wait_cycles", Help: help, Labels: map[string]string{"stage": "total"}, Hist: hists.Total()}}
	for i, h := range hists.Stages(hists.NumStages()) {
		fams = append(fams, obs.HistFamily{Name: "wait_cycles", Help: help,
			Labels: map[string]string{"stage": fmt.Sprint(i + 1)}, Hist: h})
	}
	return fams
}

// setUp does the untimed work before a workload's first pass: build and
// validate its points (sweep.Key over each), build the wiring tables of
// every network shape it uses, and run one short warm-up replication per
// engine, with the workload's observability attached.
func (w *workload) setUp(tr *tracer, req string) error {
	w.points = w.build()
	id := tr.begin("sweep.Key", 0, req)
	for _, p := range w.points {
		if err := p.Cfg.Validate(); err != nil {
			return fmt.Errorf("point %q: %w", p.Label, err)
		}
		sweep.Key(p, w.seed)
	}
	tr.end(id)
	type shape struct {
		kind topology.Kind
		k, n int
	}
	shapes := map[shape]bool{}
	for _, p := range w.points {
		if intPow(p.Cfg.K, p.Cfg.Stages) <= 4096 {
			kind := p.Cfg.Topology
			if kind == "" {
				kind = topology.Omega
			}
			shapes[shape{kind, p.Cfg.K, p.Cfg.Stages}] = true
		}
	}
	for sh := range shapes {
		id := tr.begin("topology.WiringFor", 0, req)
		_, err := topology.WiringFor(sh.kind, sh.k, sh.n)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	// The warm-up runs each engine's largest point, shortened.
	largest := map[sweep.Engine]sweep.Point{}
	work := func(p sweep.Point) float64 { return msgStagesPerCycle(&p.Cfg) * float64(p.Cfg.Cycles+p.Cfg.Warmup) }
	var engines []sweep.Engine
	for _, p := range w.points {
		q, ok := largest[p.Engine]
		if !ok {
			engines = append(engines, p.Engine)
		}
		if !ok || work(p) > work(q) {
			largest[p.Engine] = p
		}
	}
	for _, e := range engines {
		p := largest[e]
		cfg := shorten(p.Cfg, 400_000)
		cfg.Seed = w.seed
		if w.obs.probe {
			cfg.Probe = obs.NewSimProbe()
			cfg.Probe.Hists = obs.NewHistSet()
			cfg.Probe.Tracer = obs.NewTracer(64, 4096)
		}
		id := tr.begin("warmup."+p.Engine.String(), 0, req)
		_, err := runEngine(p.Engine, &cfg, nil)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("warm-up %q: %w", p.Label, err)
		}
	}
	return nil
}

func intPow(k, n int) int {
	r := 1
	for i := 0; i < n; i++ {
		r *= k
		if r > 1<<30 {
			break
		}
	}
	return r
}
