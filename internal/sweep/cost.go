package sweep

import (
	"banyan/internal/obs"
	"banyan/internal/simnet"
)

// Per-point cost attribution: every simulation attempt's wall time,
// read from the monotonic clock, and the cycles it actually simulated
// accumulate on the point being paid for. The attribution is
// hash-excluded and result-neutral: it never enters config hashing,
// cache keys, journals, or simulated numbers, so a run with cost
// accounting is bit-identical to one without (wall clocks are not
// reproducible, which is exactly why the resume journal must not carry
// them; the RunLedger artifact and point_done events are the cost
// record instead).
//
// Both figures are exact: each attempt's duration and cycles are added
// to exactly one point, so the ledger's per-point rows sum to the
// counters' totals to the nanosecond. Process CPU and heap figures are
// not attributed: runtime/metrics counts them for the whole process,
// so concurrent attempts would share each other's deltas, and the
// user-CPU counter only advances when a collection runs. They stay
// readable for the process as a whole as proc.* on /metrics.

// PointCost is the resource cost attributed to one sweep point across
// every attempt it took (including retries).
type PointCost struct {
	WallNS int64 `json:"wall_ns"`
	// Cycles is the number of simulated cycles bought: warmup+measured
	// per completed replication, the truncation point for replications
	// stopped early.
	Cycles int64 `json:"cycles"`
	// Reps and ESS are the replications kept and the variance-reduced
	// effective sample size they amount to (ESS 0 without a VR plan).
	Reps int     `json:"reps"`
	ESS  float64 `json:"ess,omitempty"`
}

// add folds an attempt's cost into the accumulated cost.
func (c *PointCost) add(d PointCost) {
	c.WallNS += d.WallNS
	c.Cycles += d.Cycles
}

// Digest converts the cost to the event-attachment form.
func (c *PointCost) Digest() *obs.CostDigest {
	if c == nil {
		return nil
	}
	return &obs.CostDigest{WallNS: c.WallNS, Cycles: c.Cycles, Reps: c.Reps, ESS: c.ESS}
}

// runCycles is how many cycles one replication actually simulated: the
// truncation point when a guard or cancellation stopped it, the full
// warmup+measured span otherwise, 0 for a replication that produced
// nothing.
func runCycles(cfg *simnet.Config, res *simnet.Result) int64 {
	if res == nil {
		return 0
	}
	if res.Truncated {
		return res.TruncatedAt
	}
	return int64(cfg.Warmup) + int64(cfg.Cycles)
}

// addCost accumulates an attempt's cost on its point (under the notes
// lock — PointResult stays a plain copyable struct) and on the runner's
// totals.
func (r *Runner) addCost(pr *PointResult, d PointCost) {
	r.notesMu.Lock()
	if pr.Cost == nil {
		pr.Cost = &PointCost{}
	}
	pr.Cost.add(d)
	r.notesMu.Unlock()
	r.ctr.addCost(d)
}
