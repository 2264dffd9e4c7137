package sweep

import (
	"runtime/metrics"
	"time"

	"banyan/internal/obs"
	"banyan/internal/simnet"
)

// Per-point cost attribution: every simulation attempt is bracketed by
// a runtime/metrics sample, and the deltas — wall time, user CPU time,
// heap allocation bytes and objects — accumulate on the point being
// paid for, together with the cycles actually simulated. The
// attribution is hash-excluded and result-neutral: it never enters
// config hashing, cache keys, journals, or simulated numbers, so a run
// with cost accounting is bit-identical to one without (wall clocks are
// not reproducible, which is exactly why the resume journal must not
// carry them; the RunLedger artifact and point_done events are the cost
// record instead).
//
// Wall time is attributed exactly: each attempt's duration is added to
// exactly one point, so the ledger's per-point rows sum to the
// counters' totals to the nanosecond. CPU and allocation deltas are
// sampled from process-wide runtime/metrics counters, so under a
// parallel sweep concurrent workers overlap inside each other's deltas
// — they are best-effort attribution weights, not exact charges; their
// totals are still exact for the run as a whole.

// PointCost is the resource cost attributed to one sweep point across
// every attempt it took (including retries).
type PointCost struct {
	WallNS       int64 `json:"wall_ns"`
	CPUNS        int64 `json:"cpu_ns"`
	AllocBytes   int64 `json:"alloc_bytes"`
	AllocObjects int64 `json:"alloc_objects"`
	// Cycles is the number of simulated cycles bought: warmup+measured
	// per completed replication, the truncation point for replications
	// stopped early.
	Cycles int64 `json:"cycles"`
	// Reps and ESS are the replications kept and the variance-reduced
	// effective sample size they amount to (ESS 0 without a VR plan).
	Reps int     `json:"reps"`
	ESS  float64 `json:"ess,omitempty"`
}

// add folds an attempt's delta into the accumulated cost.
func (c *PointCost) add(d PointCost) {
	c.WallNS += d.WallNS
	c.CPUNS += d.CPUNS
	c.AllocBytes += d.AllocBytes
	c.AllocObjects += d.AllocObjects
	c.Cycles += d.Cycles
}

// Digest converts the cost to the event-attachment form.
func (c *PointCost) Digest() *obs.CostDigest {
	if c == nil {
		return nil
	}
	return &obs.CostDigest{
		WallNS:       c.WallNS,
		CPUNS:        c.CPUNS,
		AllocBytes:   c.AllocBytes,
		AllocObjects: c.AllocObjects,
		Cycles:       c.Cycles,
		Reps:         c.Reps,
		ESS:          c.ESS,
	}
}

// costSample is one reading of the process-wide resource counters.
type costSample struct {
	cpuNS      int64
	allocBytes int64
	allocObjs  int64
}

// costKeys are the runtime/metrics counters an attempt is bracketed by.
var costKeys = []string{
	"/cpu/classes/user:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// readCostSample samples the process-wide counters.
func readCostSample() costSample {
	s := make([]metrics.Sample, len(costKeys))
	for i, k := range costKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	out := costSample{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.cpuNS = int64(s[0].Value.Float64() * float64(time.Second))
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = int64(s[1].Value.Uint64())
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocObjs = int64(s[2].Value.Uint64())
	}
	return out
}

// costDelta builds an attempt's cost from its bracketing samples.
// Process-wide counters can only grow, but clamp anyway — an
// attribution layer must never report negative spend.
func costDelta(before, after costSample, wall time.Duration, cycles int64) PointCost {
	pos := func(v int64) int64 {
		if v < 0 {
			return 0
		}
		return v
	}
	return PointCost{
		WallNS:       pos(int64(wall)),
		CPUNS:        pos(after.cpuNS - before.cpuNS),
		AllocBytes:   pos(after.allocBytes - before.allocBytes),
		AllocObjects: pos(after.allocObjs - before.allocObjs),
		Cycles:       pos(cycles),
	}
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
