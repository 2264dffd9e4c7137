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
	"banyan/internal/traffic"
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

// driftBulk mirrors simnet's bulk default (0 means 1).
func driftBulk(cfg *simnet.Config) int {
	if cfg.Bulk <= 0 {
		return 1
	}
	return cfg.Bulk
}

// driftService mirrors simnet's service default (zero value = unit).
func driftService(cfg *simnet.Config) traffic.Service {
	if cfg.Service.PMF().Support() == 0 {
		return traffic.UnitService()
	}
	return cfg.Service
}

// driftIneligible reports why a configuration has no analytic reference
// distribution ("" = checkable). The monitor checks exactly the
// configurations the paper models; everything else is counted as
// skipped rather than guessed at. That includes finite buffers: the
// paper's models assume infinite ones, and a point that drops or blocks
// messages held against them would drift, or pass, for the wrong reason.
func driftIneligible(cfg *simnet.Config) string {
	if cfg.Burst != nil {
		return "bursty arrivals have no analytic waiting-time model"
	}
	if cfg.HotModule > 0 {
		return "hot-module traffic has no analytic waiting-time model"
	}
	if cfg.ResampleService {
		return "per-stage service resampling has no analytic waiting-time model"
	}
	if cfg.BufferCap > 0 {
		return "finite buffers that drop messages have no analytic waiting-time model"
	}
	for _, b := range cfg.StageBuffers {
		if b > 0 {
			return "finite buffers that block messages have no analytic waiting-time model"
		}
	}
	if cfg.Stages > 1 {
		if driftBulk(cfg) > 1 {
			return "no Section IV model for bulk arrivals beyond stage 1"
		}
		if len(driftService(cfg).PMF().SortedSupport(0)) != 1 {
			return "no Section IV model for non-constant service beyond stage 1"
		}
	}
	return ""
}

// driftArrivals reconstructs the stage-1 arrival law of a configuration.
func driftArrivals(cfg *simnet.Config) (traffic.Arrivals, error) {
	b := driftBulk(cfg)
	if cfg.Q != 0 {
		return traffic.NonuniformExclusive(cfg.K, cfg.P, cfg.Q, b)
	}
	if b > 1 {
		return traffic.Bulk(cfg.K, cfg.K, cfg.P, b)
	}
	return traffic.Uniform(cfg.K, cfg.K, cfg.P)
}

// model returns the predicted waiting-time PMF for a stage (1-based)
// with at least the given support.
func (d *DriftMonitor) model(cfg *simnet.Config, stage, support int) (dist.PMF, error) {
	if d.Reference != nil {
		return d.Reference(cfg, stage, support)
	}
	if stage == 1 {
		arr, err := driftArrivals(cfg)
		if err != nil {
			return dist.PMF{}, err
		}
		an, err := core.New(arr, driftService(cfg))
		if err != nil {
			return dist.PMF{}, err
		}
		pmf, _, err := an.WaitDistribution(support)
		return pmf, err
	}
	// Stages ≥ 2: gamma matched to the Section IV moment approximations
	// (eligibility — constant service, no bulk — was checked upstream).
	m := driftService(cfg).PMF().SortedSupport(0)[0]
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

// SwitchDrift is one switch's verdict in a per-switch drift check.
type SwitchDrift struct {
	Stage    int   // 1-based
	Switch   int   // 0-based within the stage
	N        int64 // measured waits at this switch's output ports
	KS       float64
	Critical float64
	Trigger  float64
	Drifted  bool
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

// switchDriftIneligible reports why a configuration's switches cannot
// each be held to the analytic stage distribution ("" = checkable).
// Beyond the point-level eligibility, per-switch checks need uniform
// traffic over an intact, unbuffered network: anything that loads
// switches asymmetrically makes per-switch deviation expected.
func switchDriftIneligible(cfg *simnet.Config) string {
	if reason := driftIneligible(cfg); reason != "" {
		return reason
	}
	if cfg.Q != 0 {
		return "favorite-output traffic loads switches asymmetrically"
	}
	if len(cfg.FailLinks) > 0 {
		return "link failures load the surviving switches asymmetrically"
	}
	return ""
}

// CheckSwitches compares each switch's pooled waiting-time histogram
// (hists[i][s] = stage i+1, switch s) against the analytic stage
// distribution — under uniform traffic every switch of a stage draws
// from the same law, so a single miswired switch stands out while the
// stage aggregate still averages clean. Switches with no measured
// waits are passed over rather than failed (short runs may miss a
// switch entirely).
func (d *DriftMonitor) CheckSwitches(cfg *simnet.Config, hists [][]*stats.Hist) (*SwitchDriftReport, error) {
	rep := &SwitchDriftReport{}
	if reason := switchDriftIneligible(cfg); reason != "" {
		rep.Skipped = reason
		return rep, nil
	}
	if len(hists) < cfg.Stages {
		return nil, fmt.Errorf("sweep: per-switch drift check needs %d stage rows, got %d", cfg.Stages, len(hists))
	}
	rho := float64(driftBulk(cfg)) * cfg.P * driftService(cfg).Mean()
	for i := 0; i < cfg.Stages; i++ {
		support := 256
		for _, h := range hists[i] {
			if h != nil && len(h.Counts())+64 > support {
				support = len(h.Counts()) + 64
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
			kr, err := dist.OneSampleKS(h.Counts(), model, d.alpha(), rho)
			if err != nil {
				return nil, fmt.Errorf("sweep: per-switch drift check stage %d switch %d: %w", i+1, id, err)
			}
			trigger := d.floor()
			if kr.Critical > trigger {
				trigger = kr.Critical
			}
			sd := SwitchDrift{
				Stage: i + 1, Switch: id, N: h.N(),
				KS: kr.KS, Critical: kr.Critical, Trigger: trigger,
				Drifted: kr.KS > trigger,
			}
			rep.Switches = append(rep.Switches, sd)
			rep.Drifted = rep.Drifted || sd.Drifted
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
// under the same completeness rules as mergeWaitHists.
func mergeSwitchHists(reps [][][]*stats.Hist, nStages, nSwitches int, truncated bool) [][]*stats.Hist {
	if reps == nil || truncated || nStages <= 0 || nSwitches <= 0 {
		return nil
	}
	merged := make([][]*stats.Hist, nStages)
	for s := range merged {
		merged[s] = make([]*stats.Hist, nSwitches)
		for id := range merged[s] {
			merged[s][id] = &stats.Hist{}
		}
	}
	for _, wh := range reps {
		if len(wh) < nStages {
			return nil
		}
		for s := 0; s < nStages; s++ {
			if len(wh[s]) < nSwitches {
				return nil
			}
			for id := 0; id < nSwitches; id++ {
				merged[s][id].Merge(wh[s][id])
			}
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
	rep := &DriftReport{}
	if reason := driftIneligible(cfg); reason != "" {
		rep.Skipped = reason
		d.account(rep)
		return rep, nil
	}
	if len(hists) < cfg.Stages {
		return nil, fmt.Errorf("sweep: drift check needs %d stage histograms, got %d", cfg.Stages, len(hists))
	}
	// Utilization drives the effective-sample-size correction: waits at
	// one queue share busy periods, so N is shrunk by (1-ρ)/(1+ρ).
	rho := float64(driftBulk(cfg)) * cfg.P * driftService(cfg).Mean()
	for i := 0; i < cfg.Stages; i++ {
		h := hists[i]
		if h == nil || h.N() == 0 {
			return nil, fmt.Errorf("sweep: drift check: stage %d has no measured waits", i+1)
		}
		counts := h.Counts()
		support := len(counts) + 64
		if support < 256 {
			support = 256
		}
		model, err := d.model(cfg, i+1, support)
		if err != nil {
			return nil, fmt.Errorf("sweep: drift model for stage %d: %w", i+1, err)
		}
		kr, err := dist.OneSampleKS(counts, model, d.alpha(), rho)
		if err != nil {
			return nil, fmt.Errorf("sweep: drift check stage %d: %w", i+1, err)
		}
		trigger := d.floor()
		if kr.Critical > trigger {
			trigger = kr.Critical
		}
		sd := StageDrift{
			Stage:    i + 1,
			N:        h.N(),
			KS:       kr.KS,
			Critical: kr.Critical,
			Trigger:  trigger,
			Drifted:  kr.KS > trigger,
		}
		rep.Stages = append(rep.Stages, sd)
		rep.Drifted = rep.Drifted || sd.Drifted
		d.setKS(i+1, kr.KS)
	}
	d.account(rep)
	return rep, nil
}
