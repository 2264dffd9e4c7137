package simnet

import "banyan/internal/stats"

// Replicated aggregates independent replications of one configuration,
// giving honest confidence intervals for steady-state quantities (single
// long runs have autocorrelated output; across-replication variability is
// i.i.d. by construction).
type Replicated struct {
	Runs []*Result

	// TotalMeanW / TotalVarW collect each replication's total-wait mean
	// and variance, so the CI helpers below can report across-run
	// dispersion.
	TotalMeanW stats.Welford
	TotalVarW  stats.Welford

	// StageMeanW[i] collects each replication's mean wait at stage i+1.
	StageMeanW []stats.Welford

	// Merged is the pooled histogram of total waits over all
	// replications.
	Merged stats.Hist
}

// Aggregate pools per-replication results into a Replicated summary.
// Results must be in replication order: the pooled statistics are then
// bit-identical regardless of how the replications were scheduled.
func Aggregate(results []*Result, stages int) *Replicated {
	agg := &Replicated{
		Runs:       results,
		StageMeanW: make([]stats.Welford, stages),
	}
	for _, res := range results {
		agg.TotalMeanW.Add(res.MeanTotalWait())
		agg.TotalVarW.Add(res.VarTotalWait())
		for s := range res.StageWait {
			agg.StageMeanW[s].Add(res.StageWait[s].Mean())
		}
		agg.Merged.Merge(&res.TotalWait)
	}
	return agg
}

// SplitSeed derives statistically independent seeds (SplitMix64 step);
// it is the sweep engine's seed-derivation rule: a point's seed is the
// root seed split by the point's canonical key, and replication i runs
// at SplitSeed(point seed, i) unless a variance-reduction plan
// redirects it.
func SplitSeed(base, i uint64) uint64 {
	z := base + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Replications returns the number of replications aggregated.
func (rp *Replicated) Replications() int { return len(rp.Runs) }

// MeanTotalWait returns the across-replication estimate of the mean total
// wait.
func (rp *Replicated) MeanTotalWait() float64 { return rp.TotalMeanW.Mean() }

// MeanTotalWaitCI returns the half-width of a 95% confidence interval
// for the mean total wait, using the Student-t critical value for the
// replication count (replication means are i.i.d., so the t interval is
// exact under normality and honest at small run counts, where the old
// normal critical value understated the width — by 6.5× at 2 runs).
func (rp *Replicated) MeanTotalWaitCI() float64 {
	return rp.TotalMeanW.MeanHalfWidth(0.95)
}

// VarTotalWait returns the across-replication estimate of the total-wait
// variance.
func (rp *Replicated) VarTotalWait() float64 { return rp.TotalVarW.Mean() }

// VarTotalWaitCI returns the Student-t 95% half-width for the variance
// estimate.
func (rp *Replicated) VarTotalWaitCI() float64 {
	return rp.TotalVarW.MeanHalfWidth(0.95)
}

// StageMeanWait returns the across-replication mean wait at a stage
// (1-based) with its Student-t 95% half-width.
func (rp *Replicated) StageMeanWait(stage int) (mean, halfWidth float64) {
	w := rp.StageMeanW[stage-1]
	return w.Mean(), w.MeanHalfWidth(0.95)
}
