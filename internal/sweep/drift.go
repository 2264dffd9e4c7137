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
// reaches a few hundredths of KS distance at deep stages — the floor
// keeps that approximation error from tripping the monitor on perfectly
// healthy runs, while a genuinely mismatched model (wrong m or λ) moves
// the whole distribution and clears it easily.
const DefaultDriftThreshold = 0.15

// defaultDriftAlpha is the significance of the statistical component of
// the trigger (the sample-size-dependent KS critical value).
const defaultDriftAlpha = 0.01

// StageDrift is one stage's verdict in a drift check.
type StageDrift struct {
	Stage    int     // 1-based
	N        int64   // measured waits at this stage
	KS       float64 // empirical vs analytic KS distance
	Critical float64 // autocorrelation-corrected critical value
	Trigger  float64 // effective trigger: max(threshold floor, Critical)
	Drifted  bool    // KS > Trigger
}

// DriftReport is the outcome of checking one point.
type DriftReport struct {
	// Skipped is non-empty when the point has no analytic reference
	// model (bursty or hot-module traffic, resampled service, …); the
	// Stages slice is then empty.
	Skipped string
	Stages  []StageDrift
	Drifted bool
}

// MaxKS returns the report's worst per-stage statistic and its stage
// (0, 0 for a skipped report).
func (r *DriftReport) MaxKS() (stage int, ks float64) {
	for _, s := range r.Stages {
		if s.KS >= ks {
			stage, ks = s.Stage, s.KS
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
// offending stage. Safe for concurrent use by the runner's workers.
type DriftMonitor struct {
	// Threshold is the KS floor below which no stage is flagged
	// (0 = DefaultDriftThreshold). The effective trigger per stage is
	// max(Threshold, critical value at Alpha for the stage's effective
	// sample size).
	Threshold float64
	// Alpha is the significance of the statistical trigger component
	// (0 = 0.01).
	Alpha float64
	// Reference, when non-nil, replaces the analytic model: it must
	// return the predicted waiting-time PMF for the given stage
	// (1-based) with at least the given support. The monitor's own
	// tests use it to verify a mismatched model is caught.
	Reference func(cfg *simnet.Config, stage, support int) (dist.PMF, error)

	mu      sync.Mutex
	reg     *obs.Registry
	lastKS  []float64 // most recent KS per stage (gauge backing)
	checked int64
	drifted int64
	skipped int64

	// Per-switch verdict counters (graph-engine points): individual
	// switch checks and how many of them drifted.
	swChecked int64
	swDrifted int64
}

func (d *DriftMonitor) floor() float64 {
	if d.Threshold > 0 {
		return d.Threshold
	}
	return DefaultDriftThreshold
}

func (d *DriftMonitor) alpha() float64 {
	if d.Alpha > 0 {
		return d.Alpha
	}
	return defaultDriftAlpha
}

// Register exposes the monitor in a metrics registry:
// drift.points_checked / drift.points_drifted / drift.points_skipped,
// plus one drift.stage<i>.ks gauge per stage (registered lazily as
// stages appear, holding the most recent KS distance).
func (d *DriftMonitor) Register(reg *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reg = reg
	reg.Func("drift.points_checked", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.checked)
	})
	reg.Func("drift.points_drifted", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.drifted)
	})
	reg.Func("drift.points_skipped", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.skipped)
	})
	reg.Func("drift.switches_checked", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.swChecked)
	})
	reg.Func("drift.switches_drifted", func() float64 {
		d.mu.Lock()
		defer d.mu.Unlock()
		return float64(d.swDrifted)
	})
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

// setKS publishes a stage's latest statistic, growing (and lazily
// registering) the gauge vector as deeper networks appear.
func (d *DriftMonitor) setKS(stage int, ks float64) { // 1-based
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.lastKS) < stage {
		d.lastKS = append(d.lastKS, 0)
		d.registerStageLocked(len(d.lastKS) - 1)
	}
	d.lastKS[stage-1] = ks
}

// DriftTotals is the monitor's cumulative verdict counts. The switch
// counters tally individual per-switch checks on graph-engine points
// (a point with s stages of w switches contributes up to s·w).
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
	return DriftTotals{
		Checked: d.checked, Drifted: d.drifted, Skipped: d.skipped,
		SwitchesChecked: d.swChecked, SwitchesDrifted: d.swDrifted,
	}
}

func (d *DriftMonitor) account(rep *DriftReport) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if rep.Skipped != "" {
		d.skipped++
		return
	}
	d.checked++
	if rep.Drifted {
		d.drifted++
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
// the KS distance, the critical value at Alpha for the sample size
// shrunk by utilization rho (waits at one queue share busy periods, so
// N is scaled by (1-ρ)/(1+ρ)), the trigger max(floor, critical), and
// whether the distance exceeds it.
func (d *DriftMonitor) verdict(stage int, h *stats.Hist, model dist.PMF, rho float64) (StageDrift, error) {
	kr, err := dist.OneSampleKS(h.Counts(), model, d.alpha(), rho)
	if err != nil {
		return StageDrift{}, err
	}
	trigger := d.floor()
	if kr.Critical > trigger {
		trigger = kr.Critical
	}
	return StageDrift{
		Stage: stage, N: h.N(),
		KS: kr.KS, Critical: kr.Critical, Trigger: trigger,
		Drifted: kr.KS > trigger,
	}, nil
}

// mergeWaitHists pools per-replication stage histograms in replication
// order into one histogram per stage. It returns nil when drift data is
// absent or unusable: no histograms were collected, a replication's set
// is incomplete, or the point was truncated (a run stopped mid-stream
// measures a biased waiting-time sample that would register as
// spurious drift).
func mergeWaitHists(reps [][]*stats.Hist, nStages int, truncated bool) []*stats.Hist {
	if reps == nil || truncated || nStages <= 0 {
		return nil
	}
	merged := make([]*stats.Hist, nStages)
	for s := range merged {
		merged[s] = &stats.Hist{}
	}
	for _, wh := range reps {
		if len(wh) < nStages {
			return nil
		}
		for s := 0; s < nStages; s++ {
			merged[s].Merge(wh[s])
		}
	}
	return merged
}

// newDriftHists gives one replication fresh, empty drift histograms:
// one per stage (cfg.WaitHists) and, when perSwitch is set, one per
// (stage, switch) (cfg.SwitchWaitHists, graph engine only). The engine
// fills them; they are hash-excluded and result-neutral.
func newDriftHists(cfg *simnet.Config, perSwitch bool) {
	cfg.WaitHists = make([]*stats.Hist, cfg.Stages)
	for s := range cfg.WaitHists {
		cfg.WaitHists[s] = &stats.Hist{}
	}
	if !perSwitch {
		return
	}
	cfg.SwitchWaitHists = make([][]*stats.Hist, cfg.Stages)
	for s := range cfg.SwitchWaitHists {
		cfg.SwitchWaitHists[s] = make([]*stats.Hist, switchCount(cfg))
		for id := range cfg.SwitchWaitHists[s] {
			cfg.SwitchWaitHists[s][id] = &stats.Hist{}
		}
	}
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

// SwitchDrift is one switch's verdict in a per-switch drift check; N
// counts the measured waits at the switch's output ports.
type SwitchDrift struct {
	StageDrift
	Switch int // 0-based within the stage
}

// SwitchDriftReport is the outcome of checking one graph-engine point
// switch by switch.
type SwitchDriftReport struct {
	// Skipped is non-empty when the configuration's per-switch loads are
	// not exchangeable (or no analytic model exists at all), so holding
	// each switch to the stage distribution would flag healthy runs.
	Skipped  string
	Switches []SwitchDrift
	Drifted  bool
}

// CheckSwitches compares each switch's pooled waiting-time histogram
// (hists[i][s] = stage i+1, switch s) against the analytic stage
// distribution — under uniform traffic every switch of a stage draws
// from the same law, so a single miswired switch stands out while the
// stage aggregate still averages clean. Switches with no measured
// waits are passed over rather than failed (short runs may miss a
// switch entirely).
func (d *DriftMonitor) CheckSwitches(cfg *simnet.Config, hists [][]*stats.Hist) (*SwitchDriftReport, error) {
	// Beyond the point-level eligibility, per-switch checks need uniform
	// traffic: anything that loads switches asymmetrically makes
	// per-switch deviation expected.
	rep := &SwitchDriftReport{Skipped: driftIneligible(cfg)}
	if rep.Skipped == "" && cfg.Q != 0 {
		rep.Skipped = "favorite-output traffic loads switches asymmetrically"
	}
	if rep.Skipped != "" {
		return rep, nil
	}
	if len(hists) < cfg.Stages {
		return nil, fmt.Errorf("sweep: per-switch drift check needs %d stage rows, got %d", cfg.Stages, len(hists))
	}
	rho := cfg.Utilization()
	for i := 0; i < cfg.Stages; i++ {
		support := 256
		for _, h := range hists[i] {
			if h != nil {
				support = max(support, h.Max()+65)
			}
		}
		model, err := d.model(cfg, i+1, support)
		if err != nil {
			return nil, fmt.Errorf("sweep: drift model for stage %d: %w", i+1, err)
		}
		for id, h := range hists[i] {
			if h == nil || h.N() == 0 {
				continue
			}
			v, err := d.verdict(i+1, h, model, rho)
			if err != nil {
				return nil, fmt.Errorf("sweep: per-switch drift check stage %d switch %d: %w", i+1, id, err)
			}
			rep.Switches = append(rep.Switches, SwitchDrift{StageDrift: v, Switch: id})
			rep.Drifted = rep.Drifted || v.Drifted
		}
	}
	d.mu.Lock()
	d.swChecked += int64(len(rep.Switches))
	for _, sd := range rep.Switches {
		if sd.Drifted {
			d.swDrifted++
		}
	}
	d.mu.Unlock()
	return rep, nil
}

// mergeSwitchHists pools per-replication (stage, switch) histograms,
// merging each stage's switches under mergeWaitHists' completeness
// rules.
func mergeSwitchHists(reps [][][]*stats.Hist, nStages, nSwitches int, truncated bool) [][]*stats.Hist {
	if reps == nil || nStages <= 0 {
		return nil
	}
	merged := make([][]*stats.Hist, nStages)
	for s := range merged {
		stage := make([][]*stats.Hist, len(reps))
		for r, wh := range reps {
			if len(wh) < nStages {
				return nil
			}
			stage[r] = wh[s]
		}
		if merged[s] = mergeWaitHists(stage, nSwitches, truncated); merged[s] == nil {
			return nil
		}
	}
	return merged
}

// checkSwitchDrift runs the per-switch monitor on a completed
// graph-engine point, emitting one drift event per offending switch.
func (r *Runner) checkSwitchDrift(pr *PointResult, merged [][]*stats.Hist) {
	rep, err := r.Drift.CheckSwitches(&pr.Point.Cfg, merged)
	if err != nil {
		ev := pointEvent(obs.EventDrift, pr)
		ev.Err = err.Error()
		r.emit(ev)
		return
	}
	for _, sd := range rep.Switches {
		if !sd.Drifted {
			continue
		}
		ev := pointEvent(obs.EventDrift, pr)
		ev.Stage = sd.Stage
		ev.Switch = sd.Switch + 1 // 1-based in events so switch 0 survives omitempty
		ev.KS = sd.KS
		ev.Threshold = sd.Trigger
		r.emit(ev)
	}
}

// checkDrift runs the drift monitor on a completed point's merged
// histograms and emits one drift event per offending stage. The monitor
// is diagnostic-only: a modelling failure surfaces as a drift event
// carrying the error, never as a point failure.
func (r *Runner) checkDrift(pr *PointResult, merged []*stats.Hist) {
	rep, err := r.Drift.Check(&pr.Point.Cfg, merged)
	if err != nil {
		ev := pointEvent(obs.EventDrift, pr)
		ev.Err = err.Error()
		r.emit(ev)
		return
	}
	for _, sd := range rep.Stages {
		if !sd.Drifted {
			continue
		}
		ev := pointEvent(obs.EventDrift, pr)
		ev.Stage = sd.Stage
		ev.KS = sd.KS
		ev.Threshold = sd.Trigger
		r.emit(ev)
	}
}

// Check compares a point's merged per-stage waiting-time histograms
// (hists[i] = stage i+1) against the analytic model and returns the
// per-stage verdicts, updating the monitor's counters and gauges.
func (d *DriftMonitor) Check(cfg *simnet.Config, hists []*stats.Hist) (*DriftReport, error) {
	rep := &DriftReport{Skipped: driftIneligible(cfg)}
	if rep.Skipped != "" {
		d.account(rep)
		return rep, nil
	}
	if len(hists) < cfg.Stages {
		return nil, fmt.Errorf("sweep: drift check needs %d stage histograms, got %d", cfg.Stages, len(hists))
	}
	rho := cfg.Utilization()
	for i := 0; i < cfg.Stages; i++ {
		h := hists[i]
		if h == nil || h.N() == 0 {
			return nil, fmt.Errorf("sweep: drift check: stage %d has no measured waits", i+1)
		}
		model, err := d.model(cfg, i+1, max(h.Max()+65, 256))
		if err != nil {
			return nil, fmt.Errorf("sweep: drift model for stage %d: %w", i+1, err)
		}
		sd, err := d.verdict(i+1, h, model, rho)
		if err != nil {
			return nil, fmt.Errorf("sweep: drift check stage %d: %w", i+1, err)
		}
		rep.Stages = append(rep.Stages, sd)
		rep.Drifted = rep.Drifted || sd.Drifted
		d.setKS(i+1, sd.KS)
	}
	d.account(rep)
	return rep, nil
}
