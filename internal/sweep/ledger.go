package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"banyan/internal/simnet"
	"banyan/internal/textplot"
)

// The run ledger is the end-of-run accounting artifact: one auditable
// document answering "what was run, where did this sweep's wall time
// go, what did caching and resumption save, what went wrong, and did
// the books balance". It is built from two independently maintained
// records — the per-point rows the LedgerCollector observed at each
// settle site, and the runner's Counters — and Reconcile cross-checks
// them: the settled-terminal invariant must hold, the rows' status
// counts must match the counters point for point, and the rows' cost
// columns must sum to the counters' attributed totals exactly (both
// sides are fed by the same addCost call sites, so any disagreement is
// a bookkeeping bug, not measurement noise). Wall clocks are not
// reproducible, so none of this ever touches results, hashes, caches,
// or the resume journal.

// LedgerStatus is the terminal state a ledger row records.
type LedgerStatus string

const (
	LedgerDone    LedgerStatus = "done"
	LedgerFailed  LedgerStatus = "failed"
	LedgerCached  LedgerStatus = "cached"
	LedgerResumed LedgerStatus = "resumed"
	LedgerAliased LedgerStatus = "aliased"
)

// LedgerRow is one settled point in the ledger.
type LedgerRow struct {
	Label  string       `json:"label"`
	Key    string       `json:"key"`
	Engine string       `json:"engine"`
	Status LedgerStatus `json:"status"`
	// Seed is the point's derived base seed (SeedFor under the run's
	// root seed); replication i ran at simnet.SplitSeed(Seed, i) unless
	// a VR plan redirected it.
	Seed uint64 `json:"seed"`
	Reps int    `json:"reps"`
	// Cost is the resource cost the point was attributed; nil for
	// cached/resumed/aliased rows — their price was paid elsewhere.
	Cost     *PointCost `json:"cost,omitempty"`
	Recovery []string   `json:"recovery,omitempty"`
	Err      string     `json:"err,omitempty"`
	// VR effectiveness, when the point carried an estimate.
	VarReduction float64 `json:"var_reduction,omitempty"`
	ESS          float64 `json:"ess,omitempty"`
	// SaturatedSwitches counts the distinct (stage, switch) pairs the
	// graph engine flagged saturated in any replication (points run with
	// Cfg.TrackSwitches; 0 otherwise).
	SaturatedSwitches int `json:"saturated_switches,omitempty"`
}

// LedgerCollector records every settled point of a run. Attach one to
// Runner.Ledger; safe for concurrent use by the runner's workers.
type LedgerCollector struct {
	mu   sync.Mutex
	rows []LedgerRow
}

// NewLedgerCollector returns an empty collector.
func NewLedgerCollector() *LedgerCollector { return &LedgerCollector{} }

// Observe records one settled point. The runner calls this at every
// settle site; tests may call it directly.
func (l *LedgerCollector) Observe(pr *PointResult, status LedgerStatus) {
	row := LedgerRow{
		Label:  pr.Point.Label,
		Key:    keyHex(pr.Key),
		Engine: pr.Point.Engine.String(),
		Status: status,
		Seed:   pr.Seed,
		Reps:   len(pr.Runs),
	}
	if pr.Cost != nil {
		c := *pr.Cost
		row.Cost = &c
	}
	if len(pr.Recovery) > 0 {
		row.Recovery = append([]string(nil), pr.Recovery...)
	}
	if pr.Err != nil {
		row.Err = pr.Err.Error()
	}
	if pr.VR != nil {
		row.VarReduction = pr.VR.VarReduction
		row.ESS = pr.VR.ESS
	}
	row.SaturatedSwitches = saturatedSwitchCount(pr.Runs)
	l.mu.Lock()
	l.rows = append(l.rows, row)
	l.mu.Unlock()
}

// saturatedSwitchCount counts the distinct (stage, switch) pairs the
// graph engine flagged saturated in any of the point's replications.
func saturatedSwitchCount(runs []*simnet.Result) int {
	var seen map[[2]int]bool
	for _, run := range runs {
		if run == nil {
			continue
		}
		for _, s := range run.SwitchSat {
			if !s.Saturated {
				continue
			}
			if seen == nil {
				seen = make(map[[2]int]bool)
			}
			seen[[2]int{s.Stage, s.Switch}] = true
		}
	}
	return len(seen)
}

// Rows returns a copy of the observed rows, in settle order.
func (l *LedgerCollector) Rows() []LedgerRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LedgerRow(nil), l.rows...)
}

// ledgerSchema names the artifact format; bump on breaking changes.
const ledgerSchema = "banyan.run_ledger/v2"

// ledgerTopK is how many most-expensive points the ledger highlights.
const ledgerTopK = 10

// RunLedger is the end-of-run accounting artifact (-ledger-out).
type RunLedger struct {
	Schema string `json:"schema"`

	Points struct {
		Total   int64 `json:"total"`
		Done    int64 `json:"done"` // includes cached+resumed, as in Counters
		Failed  int64 `json:"failed"`
		Aliased int64 `json:"aliased"`
		Cached  int64 `json:"cached"`
		Resumed int64 `json:"resumed"`
	} `json:"points"`

	Reps struct {
		Total     int64 `json:"total"`
		Simulated int64 `json:"simulated"`
		Truncated int64 `json:"truncated"`
		Messages  int64 `json:"messages"`
		Dropped   int64 `json:"dropped"`
	} `json:"reps"`

	Faults struct {
		Retries       int64 `json:"retries"`
		WatchdogFired int64 `json:"watchdog_fired"`
	} `json:"faults"`

	// Cost is the attributed spend; BusyNS is the runner's busy
	// wall-clock (union of batch intervals), the denominator of
	// Utilization = WallNS / (BusyNS × Parallelism).
	Cost struct {
		WallNS      int64   `json:"wall_ns"`
		Cycles      int64   `json:"cycles"`
		BusyNS      int64   `json:"busy_ns"`
		Parallelism int     `json:"parallelism"`
		Utilization float64 `json:"utilization"`
	} `json:"cost"`

	// Savings counts the points (and their replications) served without
	// simulation; EstSavedWallNS prices them at the run's own mean
	// per-replication wall cost — an estimate, clearly labelled as one.
	Savings struct {
		CachedPoints   int64 `json:"cached_points"`
		ResumedPoints  int64 `json:"resumed_points"`
		AliasedPoints  int64 `json:"aliased_points"`
		RepsAvoided    int64 `json:"reps_avoided"`
		EstSavedWallNS int64 `json:"est_saved_wall_ns"`
	} `json:"savings"`

	// VR summarizes variance-reduction effectiveness over the points
	// that carried estimates; nil when none did.
	VR *struct {
		Points           int     `json:"points"`
		MeanVarReduction float64 `json:"mean_var_reduction"`
		TotalReps        int64   `json:"total_reps"`
		TotalESS         float64 `json:"total_ess"`
	} `json:"vr,omitempty"`

	// Drift carries the monitor's verdict totals; nil without a monitor.
	Drift *DriftTotals `json:"drift,omitempty"`

	// TopK lists the most expensive fresh points by wall time.
	TopK []LedgerRow `json:"top_k"`
	// Rows is the full settle-ordered audit trail.
	Rows []LedgerRow `json:"rows"`

	// Reconciled reports whether the rows and the counters tell the same
	// story; Note names the first discrepancy when they do not.
	Reconciled bool   `json:"reconciled"`
	Note       string `json:"note,omitempty"`
}

// BuildLedger assembles the run ledger from the runner's collector,
// counters, and (when attached) drift monitor. It requires
// Runner.Ledger to have been set before the run; without one the
// ledger still carries the counter totals, with no rows and a note.
func (r *Runner) BuildLedger() *RunLedger {
	led := &RunLedger{Schema: ledgerSchema}
	p := r.ctr.Snapshot()

	led.Points.Total = p.PointsTotal
	led.Points.Done = p.PointsDone
	led.Points.Failed = p.PointsFailed
	led.Points.Aliased = p.PointsAliased
	led.Points.Cached = p.PointsCached
	led.Points.Resumed = p.PointsResumed

	led.Reps.Total = p.RepsTotal
	led.Reps.Simulated = p.RepsDone
	led.Reps.Truncated = p.Truncated
	led.Reps.Messages = p.Messages
	led.Reps.Dropped = p.Dropped

	led.Faults.Retries = p.Retries
	led.Faults.WatchdogFired = p.WatchdogFired

	led.Cost.WallNS = p.CostWallNS
	led.Cost.Cycles = p.CostCycles
	led.Cost.BusyNS = int64(p.Elapsed)
	led.Cost.Parallelism = r.parallelism()
	if denom := float64(led.Cost.BusyNS) * float64(led.Cost.Parallelism); denom > 0 {
		led.Cost.Utilization = float64(led.Cost.WallNS) / denom
	}

	if r.Drift != nil {
		t := r.Drift.Totals()
		led.Drift = &t
	}

	if r.Ledger == nil {
		led.Note = "no LedgerCollector attached: counter totals only, rows not recorded"
		led.Reconciled = false
		return led
	}
	led.Rows = r.Ledger.Rows()

	var fresh []LedgerRow
	var freshReps int64
	var vrPoints int
	var vrSumRed, vrSumESS float64
	var vrReps int64
	for _, row := range led.Rows {
		switch row.Status {
		case LedgerCached:
			led.Savings.CachedPoints++
			led.Savings.RepsAvoided += int64(row.Reps)
		case LedgerResumed:
			led.Savings.ResumedPoints++
			led.Savings.RepsAvoided += int64(row.Reps)
		case LedgerAliased:
			led.Savings.AliasedPoints++
			led.Savings.RepsAvoided += int64(row.Reps)
		default:
			fresh = append(fresh, row)
			freshReps += int64(row.Reps)
		}
		if row.ESS > 0 {
			vrPoints++
			vrSumRed += row.VarReduction
			vrSumESS += row.ESS
			vrReps += int64(row.Reps)
		}
	}
	if freshReps > 0 {
		meanRepWall := float64(led.Cost.WallNS) / float64(freshReps)
		led.Savings.EstSavedWallNS = int64(meanRepWall * float64(led.Savings.RepsAvoided))
	}
	if vrPoints > 0 {
		led.VR = &struct {
			Points           int     `json:"points"`
			MeanVarReduction float64 `json:"mean_var_reduction"`
			TotalReps        int64   `json:"total_reps"`
			TotalESS         float64 `json:"total_ess"`
		}{
			Points:           vrPoints,
			MeanVarReduction: vrSumRed / float64(vrPoints),
			TotalReps:        vrReps,
			TotalESS:         vrSumESS,
		}
	}

	sort.SliceStable(fresh, func(i, j int) bool {
		var wi, wj int64
		if fresh[i].Cost != nil {
			wi = fresh[i].Cost.WallNS
		}
		if fresh[j].Cost != nil {
			wj = fresh[j].Cost.WallNS
		}
		return wi > wj
	})
	if len(fresh) > ledgerTopK {
		fresh = fresh[:ledgerTopK]
	}
	led.TopK = fresh

	led.Reconciled, led.Note = reconcile(led, p)
	return led
}

// reconcile cross-checks the ledger's rows against the counters. Both
// records are written at the same call sites, so every check is exact:
// tolerance would only hide bugs.
func reconcile(led *RunLedger, p Progress) (bool, string) {
	if !p.Settled() {
		return false, fmt.Sprintf("settled invariant violated: done %d + failed %d + aliased %d != total %d",
			p.PointsDone, p.PointsFailed, p.PointsAliased, p.PointsTotal)
	}
	var n = map[LedgerStatus]int64{}
	var wall, cyc int64
	for _, row := range led.Rows {
		n[row.Status]++
		if row.Cost != nil {
			wall += row.Cost.WallNS
			cyc += row.Cost.Cycles
		}
	}
	checks := []struct {
		name      string
		got, want int64
	}{
		{"fresh done rows", n[LedgerDone], p.PointsDone - p.PointsCached - p.PointsResumed},
		{"failed rows", n[LedgerFailed], p.PointsFailed},
		{"cached rows", n[LedgerCached], p.PointsCached},
		{"resumed rows", n[LedgerResumed], p.PointsResumed},
		{"aliased rows", n[LedgerAliased], p.PointsAliased},
		{"row wall_ns sum", wall, p.CostWallNS},
		{"row cycles sum", cyc, p.CostCycles},
	}
	for _, c := range checks {
		if c.got != c.want {
			return false, fmt.Sprintf("%s %d != counters %d", c.name, c.got, c.want)
		}
	}
	return true, ""
}

// WriteJSON renders the ledger as indented JSON.
func (led *RunLedger) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(led)
}

// WriteText renders the ledger as aligned text tables — the terminal
// rendition of the same accounting.
func (led *RunLedger) WriteText(w io.Writer) error {
	status := "RECONCILED"
	if !led.Reconciled {
		status = "NOT RECONCILED"
		if led.Note != "" {
			status += ": " + led.Note
		}
	}
	if _, err := fmt.Fprintf(w, "run ledger (%s) — %s\n\n", led.Schema, status); err != nil {
		return err
	}
	i := func(v int64) string { return fmt.Sprintf("%d", v) }
	d := func(ns int64) string { return time.Duration(ns).Round(time.Microsecond).String() }
	if err := textplot.Table(w, "points", []string{"total", "done", "failed", "aliased", "cached", "resumed"},
		[][]string{{i(led.Points.Total), i(led.Points.Done), i(led.Points.Failed),
			i(led.Points.Aliased), i(led.Points.Cached), i(led.Points.Resumed)}}); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := textplot.Table(w, "cost", []string{"wall", "cycles", "busy", "util"},
		[][]string{{d(led.Cost.WallNS), i(led.Cost.Cycles), d(led.Cost.BusyNS),
			fmt.Sprintf("%.0f%%", led.Cost.Utilization*100)}}); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	if err := textplot.Table(w, "savings / faults",
		[]string{"cached", "resumed", "aliased", "reps avoided", "est saved", "retries", "watchdog"},
		[][]string{{i(led.Savings.CachedPoints), i(led.Savings.ResumedPoints), i(led.Savings.AliasedPoints),
			i(led.Savings.RepsAvoided), d(led.Savings.EstSavedWallNS),
			i(led.Faults.Retries), i(led.Faults.WatchdogFired)}}); err != nil {
		return err
	}
	if led.VR != nil {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := textplot.Table(w, "variance reduction", []string{"points", "mean reduction", "reps", "ess"},
			[][]string{{i(int64(led.VR.Points)), fmt.Sprintf("%.2fx", led.VR.MeanVarReduction),
				i(led.VR.TotalReps), fmt.Sprintf("%.1f", led.VR.TotalESS)}}); err != nil {
			return err
		}
	}
	if led.Drift != nil {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := textplot.Table(w, "drift", []string{"checked", "drifted", "skipped", "switches", "sw drifted"},
			[][]string{{i(led.Drift.Checked), i(led.Drift.Drifted), i(led.Drift.Skipped),
				i(led.Drift.SwitchesChecked), i(led.Drift.SwitchesDrifted)}}); err != nil {
			return err
		}
	}
	var satRows [][]string
	for _, row := range led.Rows {
		if row.SaturatedSwitches > 0 {
			satRows = append(satRows, []string{row.Label, row.Engine, i(int64(row.SaturatedSwitches))})
		}
	}
	if len(satRows) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		if err := textplot.Table(w, "saturated switches", []string{"label", "engine", "switches"}, satRows); err != nil {
			return err
		}
	}
	if len(led.TopK) > 0 {
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
		rows := make([][]string, 0, len(led.TopK))
		for _, row := range led.TopK {
			var wallNS, cycles int64
			if row.Cost != nil {
				wallNS, cycles = row.Cost.WallNS, row.Cost.Cycles
			}
			rows = append(rows, []string{
				row.Label, string(row.Status), i(int64(row.Reps)),
				d(wallNS), i(cycles),
			})
		}
		if err := textplot.Table(w, "most expensive points",
			[]string{"label", "status", "reps", "wall", "cycles"}, rows); err != nil {
			return err
		}
	}
	return nil
}
