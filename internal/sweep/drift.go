package sweep

import (
	"fmt"
	"strconv"
	"sync"

	"banyan/internal/core"
	"banyan/internal/dist"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/stats"
)

// DefaultDriftThreshold is the KS-distance floor below which a point is
// never flagged, regardless of sample size. The stage-1 comparison is
// against the exact Theorem-1 distribution, but stages ≥ 2 are held
// against the Section IV gamma approximation, whose own model error
// reaches a few hundredths of KS distance at deep stages; the floor
// absorbs that error, while a genuinely mismatched model (wrong m or λ)
// moves the whole distribution and clears it easily. The floor does not
// hold for long service times: the gamma puts too little mass at w = 0
// for m ≥ 4, so full-scale Table III trips it on correct runs at m = 8
// and m = 16 (KS 0.169–0.253 at stages ≥ 2; ROADMAP item 11).
const DefaultDriftThreshold = 0.15

// driftAlpha is the significance of the statistical component of the
// trigger (the sample-size-dependent KS critical value).
const driftAlpha = 0.01

// Verdict is one drift check: a stage's pooled waiting times, or one
// switch's, held against the stage's analytic model.
type Verdict struct {
	Stage    int     // 1-based
	Switch   int     // 1-based within the stage; 0 = the whole stage
	N        int64   // measured waits
	KS       float64 // empirical vs analytic KS distance
	Critical float64 // autocorrelation-corrected critical value
	Trigger  float64 // effective trigger: max(threshold floor, Critical)
	Drifted  bool    // KS > Trigger
}

// DriftReport is the outcome of checking one point.
type DriftReport struct {
	// Skipped is non-empty when the point has no analytic reference
	// model (bursty or hot-module traffic, resampled service, …); the
	// report then holds no verdicts.
	Skipped string
	// Verdicts holds one verdict per stage in stage order, then, on a
	// per-switch check, one per measured switch, stage by stage.
	Verdicts []Verdict
	Drifted  bool // some verdict drifted
}

// MaxKS returns the report's worst per-stage statistic and its stage
// (0, 0 for a skipped report).
func (r *DriftReport) MaxKS() (stage int, ks float64) {
	for _, v := range r.Verdicts {
		if v.Switch == 0 && v.KS >= ks {
			stage, ks = v.Stage, v.KS
		}
	}
	return
}

// DriftMonitor compares a completed point's empirical per-stage
// waiting-time distributions against the analytic predictions — the
// exact Theorem-1 transform at stage 1, the Section IV moment
// approximations (as a discretized gamma) at stages ≥ 2 — turning the
// paper's theory into a runtime self-check: a sweep whose simulator,
// seeds, or configuration plumbing has been miswired drifts away from
// the model it is supposed to reproduce, and the monitor names the
// offending stage (and, on graph points, switch). Safe for concurrent
// use by the runner's workers.
type DriftMonitor struct {
	// Threshold is the KS floor below which no stage is flagged
	// (0 = DefaultDriftThreshold). The effective trigger per stage is
	// max(Threshold, critical value at α = 0.01 for the stage's
	// effective sample size).
	Threshold float64
	// Reference, when non-nil, replaces the analytic model: it must
	// return the predicted waiting-time PMF for the given stage
	// (1-based) with at least the given support. The monitor's own
	// tests use it to verify a mismatched model is caught.
	Reference func(cfg *simnet.Config, stage, support int) (dist.PMF, error)

	mu     sync.Mutex
	reg    *obs.Registry
	lastKS []float64 // most recent KS per stage (gauge backing)
	tot    DriftTotals
}

func (d *DriftMonitor) floor() float64 {
	if d.Threshold > 0 {
		return d.Threshold
	}
	return DefaultDriftThreshold
}

// Register exposes the monitor in a metrics registry:
// drift.points_checked / drift.points_drifted / drift.points_skipped,
// drift.switches_checked / drift.switches_drifted, plus one
// drift.stage<i>.ks gauge per stage (registered lazily as stages
// appear, holding the most recent KS distance).
func (d *DriftMonitor) Register(reg *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reg = reg
	for _, c := range []struct {
		name string
		n    *int64
	}{
		{"drift.points_checked", &d.tot.Checked},
		{"drift.points_drifted", &d.tot.Drifted},
		{"drift.points_skipped", &d.tot.Skipped},
		{"drift.switches_checked", &d.tot.SwitchesChecked},
		{"drift.switches_drifted", &d.tot.SwitchesDrifted},
	} {
		reg.Func(c.name, func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(*c.n)
		})
	}
	for i := range d.lastKS {
		d.registerStageLocked(i)
	}
}

// registerStageLocked registers the stage-i (0-based) KS gauge; the
// caller holds d.mu.
func (d *DriftMonitor) registerStageLocked(i int) {
	if d.reg == nil {
		return
	}
	d.reg.Func("drift.stage"+strconv.Itoa(i+1)+".ks", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		if i < len(d.lastKS) {
			return d.lastKS[i]
		}
		return 0
	})
}

// DriftTotals is the monitor's cumulative verdict counts. A point
// counts as drifted when a stage verdict drifts; the switch counters
// tally individual per-switch verdicts on graph-engine points (a point
// with s stages of w switches contributes up to s·w).
type DriftTotals struct {
	Checked         int64 `json:"checked"`
	Drifted         int64 `json:"drifted"`
	Skipped         int64 `json:"skipped"`
	SwitchesChecked int64 `json:"switches_checked,omitempty"`
	SwitchesDrifted int64 `json:"switches_drifted,omitempty"`
}

// Totals returns the monitor's cumulative verdict counts (the ledger's
// drift section).
func (d *DriftMonitor) Totals() DriftTotals {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tot
}

// tally adds one report to the counters and publishes its stage
// statistics on the drift.stage<i>.ks gauges, growing (and lazily
// registering) the gauge vector as deeper networks appear.
func (d *DriftMonitor) tally(rep *DriftReport) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rep.Skipped != "" {
		d.tot.Skipped++
		return
	}
	d.tot.Checked++
	stageDrifted := false
	for _, v := range rep.Verdicts {
		if v.Switch != 0 {
			d.tot.SwitchesChecked++
			if v.Drifted {
				d.tot.SwitchesDrifted++
			}
			continue
		}
		stageDrifted = stageDrifted || v.Drifted
		for len(d.lastKS) < v.Stage {
			d.lastKS = append(d.lastKS, 0)
			d.registerStageLocked(len(d.lastKS) - 1)
		}
		d.lastKS[v.Stage-1] = v.KS
	}
	if stageDrifted {
		d.tot.Drifted++
	}
}

// driftIneligible reports why a configuration has no analytic reference
// distribution ("" = checkable). The monitor checks exactly the
// configurations the paper models; everything else is counted as
// skipped rather than guessed at. Stage 1 needs Theorem 1
// (simnet.Config.Stage1Law says why it may not apply: finite buffers,
// failed links, …); deeper stages also need the Section IV
// approximations, which cover constant service without bulk.
func driftIneligible(cfg *simnet.Config) string {
	_, svc, err := cfg.Stage1Law()
	switch {
	case err != nil:
		return err.Error()
	case cfg.Stages == 1:
		return ""
	case cfg.Bulk > 1:
		return "no Section IV model for bulk arrivals beyond stage 1"
	case len(svc.PMF().SortedSupport(0)) != 1:
		return "no Section IV model for non-constant service beyond stage 1"
	}
	return ""
}

// model returns the predicted waiting-time PMF for a stage (1-based)
// with at least the given support.
func (d *DriftMonitor) model(cfg *simnet.Config, stage, support int) (dist.PMF, error) {
	if d.Reference != nil {
		return d.Reference(cfg, stage, support)
	}
	arr, svc, err := cfg.Stage1Law()
	if err != nil {
		return dist.PMF{}, err
	}
	if stage == 1 {
		an, err := core.New(arr, svc)
		if err != nil {
			return dist.PMF{}, err
		}
		pmf, _, err := an.WaitDistribution(support)
		return pmf, err
	}
	// Stages ≥ 2: gamma matched to the Section IV moment approximations
	// (eligibility — constant service, no bulk — was checked upstream).
	m := svc.PMF().SortedSupport(0)[0]
	if m < 1 {
		m = 1
	}
	pr := stages.Params{K: cfg.K, M: m, P: cfg.P, Q: cfg.Q}
	md := stages.DefaultModel()
	mean := md.StageMeanWait(pr, stage)
	variance := md.StageVarWait(pr, stage)
	if mean <= 0 || variance <= 0 {
		return dist.PointPMF(0), nil
	}
	g, err := dist.GammaFromMoments(mean, variance)
	if err != nil {
		return dist.PMF{}, err
	}
	return g.Discretize(support), nil
}

// verdict holds one measured histogram against a stage's model PMF:
// the KS distance, the critical value at α for the sample size shrunk
// by utilization rho (waits at one queue share busy periods, so N is
// scaled by (1-ρ)/(1+ρ)), the trigger max(floor, critical), and whether
// the distance exceeds it.
func (d *DriftMonitor) verdict(stage, sw int, h *stats.Hist, model dist.PMF, rho float64) (Verdict, error) {
	kr, err := dist.OneSampleKS(h.Counts(), model, driftAlpha, rho)
	if err != nil {
		return Verdict{}, err
	}
	trigger := d.floor()
	if kr.Critical > trigger {
		trigger = kr.Critical
	}
	return Verdict{
		Stage: stage, Switch: sw, N: h.N(),
		KS: kr.KS, Critical: kr.Critical, Trigger: trigger,
		Drifted: kr.KS > trigger,
	}, nil
}

// Check compares a point's merged per-stage waiting-time histograms
// (hists[i] = stage i+1) against the analytic model and returns the
// per-stage verdicts, updating the monitor's counters and gauges.
func (d *DriftMonitor) Check(cfg *simnet.Config, hists []*stats.Hist) (*DriftReport, error) {
	return d.check(cfg, hists, nil)
}

// check holds each stage's pooled histogram (stageHists[i] = stage i+1)
// and, when switches is non-nil (graph points), each of the stage's
// switch histograms (switches[i][s] = stage i+1, switch s+1) against
// the stage's analytic model, built once per stage. Under uniform
// traffic every switch of a stage draws from the stage's law, so a
// single miswired switch stands out while the stage aggregate still
// averages clean; traffic with a favorite output loads switches
// asymmetrically, so its switches are not checked. Switches with no
// measured waits are passed over (short runs may miss one entirely).
func (d *DriftMonitor) check(cfg *simnet.Config, stageHists []*stats.Hist, switches [][]*stats.Hist) (*DriftReport, error) {
	rep := &DriftReport{Skipped: driftIneligible(cfg)}
	if rep.Skipped != "" {
		d.tally(rep)
		return rep, nil
	}
	if len(stageHists) < cfg.Stages {
		return nil, fmt.Errorf("sweep: drift check needs %d stage histograms, got %d", cfg.Stages, len(stageHists))
	}
	if cfg.Q != 0 {
		switches = nil
	}
	rho := cfg.Utilization()
	var perSwitch []Verdict
	for i := 0; i < cfg.Stages; i++ {
		h := stageHists[i]
		if h == nil || h.N() == 0 {
			return nil, fmt.Errorf("sweep: drift check: stage %d has no measured waits", i+1)
		}
		model, err := d.model(cfg, i+1, max(h.Max()+65, 256))
		if err != nil {
			return nil, fmt.Errorf("sweep: drift model for stage %d: %w", i+1, err)
		}
		v, err := d.verdict(i+1, 0, h, model, rho)
		if err != nil {
			return nil, fmt.Errorf("sweep: drift check stage %d: %w", i+1, err)
		}
		rep.Verdicts = append(rep.Verdicts, v)
		if switches == nil {
			continue
		}
		for s, sh := range switches[i] {
			if sh.N() == 0 {
				continue
			}
			v, err := d.verdict(i+1, s+1, sh, model, rho)
			if err != nil {
				return nil, fmt.Errorf("sweep: per-switch drift check stage %d switch %d: %w", i+1, s, err)
			}
			perSwitch = append(perSwitch, v)
		}
	}
	rep.Verdicts = append(rep.Verdicts, perSwitch...)
	for _, v := range rep.Verdicts {
		rep.Drifted = rep.Drifted || v.Drifted
	}
	d.tally(rep)
	return rep, nil
}

// emitDrift emits a checked point's drift events: one per drifted
// verdict of pr.Drift, stages before switches, or one carrying err when
// the check failed. The monitor is diagnostic-only: a modelling failure
// surfaces as a drift event, never as a point failure.
func (r *Runner) emitDrift(pr *PointResult, err error) {
	if err != nil {
		ev := pointEvent(obs.EventDrift, pr)
		ev.Err = err.Error()
		r.emit(ev)
		return
	}
	for _, v := range pr.Drift.Verdicts {
		if !v.Drifted {
			continue
		}
		ev := pointEvent(obs.EventDrift, pr)
		ev.Stage = v.Stage
		ev.Switch = v.Switch
		ev.KS = v.KS
		ev.Threshold = v.Trigger
		r.emit(ev)
	}
}

// newDriftHists gives one replication fresh, empty drift histograms,
// one list per stage: a single histogram per stage (cfg.WaitHists) on
// the stage-model engines, one per switch (cfg.SwitchWaitHists) on the
// graph engine. The engine fills them; they are hash-excluded and
// result-neutral.
func newDriftHists(cfg *simnet.Config, perSwitch bool) {
	fresh := func(n int) []*stats.Hist {
		hs := make([]*stats.Hist, n)
		for i := range hs {
			hs[i] = &stats.Hist{}
		}
		return hs
	}
	if !perSwitch {
		cfg.WaitHists = fresh(cfg.Stages)
		return
	}
	cfg.SwitchWaitHists = make([][]*stats.Hist, cfg.Stages)
	for s := range cfg.SwitchWaitHists {
		cfg.SwitchWaitHists[s] = fresh(switchCount(cfg))
	}
}

// driftRow returns a replication's drift histograms for stage i+1 from
// cfg (see newDriftHists): its one stage histogram, or its switches'.
// It returns nil when cfg has none.
func driftRow(cfg *simnet.Config, i int) []*stats.Hist {
	switch {
	case cfg == nil:
	case cfg.SwitchWaitHists != nil:
		if i < len(cfg.SwitchWaitHists) {
			return cfg.SwitchWaitHists[i]
		}
	case i < len(cfg.WaitHists):
		return cfg.WaitHists[i : i+1]
	}
	return nil
}

// poolDriftHists pools a point's per-replication drift histograms
// (reps[r] = replication r's config, see newDriftHists) in replication
// order. It returns each stage's histogram and, when the replications
// recorded per-switch histograms, each switch's histogram pooled over the
// replications (switches[i][s] = stage i+1, switch s+1). A stage is the
// sum of its switches — exact, because every engine adds each measured
// wait to both a stage's and its switch's histogram, and histogram
// counts and integer sums add without rounding. It returns nils when
// drift data is absent or unusable: no histograms were collected, a
// replication's set is incomplete, or the point was truncated (a run
// stopped mid-stream measures a biased waiting-time sample that would
// register as spurious drift).
func poolDriftHists(reps []*simnet.Config, nStages int, truncated bool) (stageHists []*stats.Hist, switches [][]*stats.Hist) {
	if len(reps) == 0 || truncated || nStages <= 0 {
		return nil, nil
	}
	stageHists = make([]*stats.Hist, nStages)
	pooled := make([][]*stats.Hist, nStages)
	for i := range pooled {
		width := len(driftRow(reps[0], i))
		if width == 0 {
			return nil, nil
		}
		pooled[i] = make([]*stats.Hist, width)
		for s := range pooled[i] {
			pooled[i][s] = &stats.Hist{}
		}
		for _, c := range reps {
			row := driftRow(c, i)
			if len(row) != width {
				return nil, nil
			}
			for s, h := range row {
				pooled[i][s].Merge(h)
			}
		}
		stageHists[i] = &stats.Hist{}
		for _, h := range pooled[i] {
			stageHists[i].Merge(h)
		}
	}
	if reps[0].SwitchWaitHists == nil {
		return stageHists, nil
	}
	return stageHists, pooled
}

// stageQuantiles digests merged per-stage histograms for attachment to
// point lifecycle events.
func stageQuantiles(hists []*stats.Hist) []obs.StageQuantiles {
	out := make([]obs.StageQuantiles, 0, len(hists))
	for i, h := range hists {
		out = append(out, obs.StageQuantiles{
			Stage: i + 1,
			N:     h.N(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		})
	}
	return out
}
