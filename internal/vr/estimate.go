package vr

import (
	"math"

	"banyan/internal/core"
	"banyan/internal/dist"
	"banyan/internal/simnet"
	"banyan/internal/stats"
)

// Estimate is a variance-reduced point estimate of the mean total wait,
// with an honest Student-t confidence interval. It is a pure function
// of (plan, config, replication results): recomputing it on cached or
// journaled results reproduces it bit for bit.
type Estimate struct {
	// Mean is the (control-variate-adjusted, when enabled) estimate of
	// the mean total wait; HalfWidth its two-sided CI half-width at
	// Confidence. Reps is the number of independent replications
	// behind them.
	Mean       float64
	HalfWidth  float64
	Confidence float64
	Reps       int

	// RawMean / RawVar are the unadjusted across-replication
	// statistics, kept so reports can show what the adjustment bought.
	RawMean float64
	RawVar  float64

	// AdjVar is the across-replication variance of the adjusted values
	// (equal to RawVar when no control applies). VarReduction =
	// RawVar/AdjVar and ESS = Reps·VarReduction, the plain-MC
	// replication count this estimate is worth.
	AdjVar       float64
	VarReduction float64
	ESS          float64

	// Controls and Beta record the fitted control variates ("" slice
	// when none applied — ineligible configuration or too few
	// replications).
	Controls []string
	Beta     []float64

	// Stopped marks an adaptive point that met its CI target before
	// the replication cap.
	Stopped bool
}

// stage1MeanWait returns the exact Theorem-1 stage-1 mean wait for
// configurations the theorem models (simnet.Config.Stage1Law decides
// which, exactly as for the drift monitor), and ok=false otherwise.
func stage1MeanWait(cfg *simnet.Config) (float64, bool) {
	arr, svc, err := cfg.Stage1Law()
	if err != nil {
		return 0, false
	}
	an, err := core.New(arr, svc)
	if err != nil {
		return 0, false
	}
	return an.MeanWait(), true
}

// control is one control variate: a per-result statistic with an
// exactly known mean.
type control struct {
	name string
	mean float64
	val  func(r *simnet.Result) float64
}

// controls returns the control variates applicable to cfg.
func controls(cfg *simnet.Config) []control {
	var cs []control
	if mu, ok := stage1MeanWait(cfg); ok {
		cs = append(cs, control{
			name: "stage1-wait",
			mean: mu,
			val: func(r *simnet.Result) float64 {
				return r.StageWait[0].Mean()
			},
		})
	}
	// Measured message count: every input generates a message with
	// probability P each measured cycle (bulk b of them), and with
	// BufferCap = 0 and no truncation every generated message is
	// measured, so E[Messages] = Rows·Cycles·P·b exactly — including
	// under bursty sources, whose ON fraction is initialized from its
	// stationary law and whose ON-rate is chosen to hit the target P.
	if cfg.BufferCap == 0 {
		b := float64(max(cfg.Bulk, 1))
		cyc := float64(cfg.Cycles)
		p := cfg.P
		cs = append(cs, control{
			name: "messages",
			mean: 0, // filled per result set: depends on Result.Rows
			val: func(r *simnet.Result) float64 {
				return float64(r.Messages) - float64(r.Rows)*cyc*p*b
			},
		})
	}
	return cs
}

// samples returns each replication's mean total wait and control values.
func samples(runs []*simnet.Result, cs []control) (ys []float64, cvals [][]float64) {
	for _, r := range runs {
		cv := make([]float64, len(cs))
		for j, c := range cs {
			cv[j] = c.val(r)
		}
		ys = append(ys, r.MeanTotalWait())
		cvals = append(cvals, cv)
	}
	return ys, cvals
}

// Estimate computes the plan's variance-reduced estimate of the mean
// total wait from a point's replication results. It never fails: when
// control variates are off, inapplicable (ineligible configuration,
// truncated or dropping runs, degenerate covariance), or under-
// determined (fewer than controls+3 replications), it degrades to the
// plain across-replication mean with a t interval.
func (p *Plan) Estimate(cfg *simnet.Config, runs []*simnet.Result) *Estimate {
	conf := p.ConfidenceLevel()
	est := &Estimate{Confidence: conf, Reps: len(runs)}
	if len(runs) == 0 {
		est.HalfWidth = math.Inf(1)
		return est
	}

	var cs []control
	if p != nil && p.ControlVariates {
		clean := true
		for _, r := range runs {
			if r.Truncated || r.Dropped > 0 {
				clean = false
				break
			}
		}
		if clean {
			cs = controls(cfg)
		}
	}

	ys, cvals := samples(runs, cs)
	n := len(ys)

	var yw stats.Welford
	for _, y := range ys {
		yw.Add(y)
	}
	est.RawMean = yw.Mean()
	est.RawVar = yw.SampleVariance()
	est.Mean, est.AdjVar = est.RawMean, est.RawVar
	df := n - 1

	// Regression adjustment: a = y - β·(c - μ) with β from the sample
	// normal equations. The controls' exact means are already folded
	// into the values (control.val subtracts them or mean is constant),
	// so μ is per-control below.
	if len(cs) > 0 && n >= len(cs)+3 {
		k := len(cs)
		cw := make([]stats.Welford, k)
		for _, cv := range cvals {
			for j := range cs {
				cw[j].Add(cv[j])
			}
		}
		// Centered second moments.
		scc := make([][]float64, k)
		syc := make([]float64, k)
		for j := range scc {
			scc[j] = make([]float64, k)
		}
		for i, cv := range cvals {
			dy := ys[i] - yw.Mean()
			for j := 0; j < k; j++ {
				dj := cv[j] - cw[j].Mean()
				syc[j] += dy * dj
				for l := 0; l <= j; l++ {
					scc[j][l] += dj * (cv[l] - cw[l].Mean())
				}
			}
		}
		for j := 0; j < k; j++ {
			for l := j + 1; l < k; l++ {
				scc[j][l] = scc[l][j]
			}
		}
		degenerate := false
		for j := 0; j < k; j++ {
			if scc[j][j] <= 0 {
				degenerate = true
			}
		}
		if !degenerate {
			beta, err := dist.SolveLinear(scc, syc)
			if err == nil {
				var aw stats.Welford
				for i, cv := range cvals {
					a := ys[i]
					for j := 0; j < k; j++ {
						a -= beta[j] * (cv[j] - cs[j].mean)
					}
					aw.Add(a)
				}
				if av := aw.SampleVariance(); av <= est.RawVar {
					est.Mean = aw.Mean()
					est.AdjVar = av
					est.Beta = beta
					for _, c := range cs {
						est.Controls = append(est.Controls, c.name)
					}
					df = n - 1 - k
				}
			}
		}
	}

	if est.AdjVar > 0 {
		est.VarReduction = est.RawVar / est.AdjVar
	} else {
		est.VarReduction = 1
	}
	est.ESS = float64(n) * est.VarReduction

	if df < 1 || n < 2 {
		est.HalfWidth = math.Inf(1)
		return est
	}
	t := dist.TQuantile(float64(df), 0.5+conf/2)
	est.HalfWidth = t * math.Sqrt(est.AdjVar/float64(n))
	return est
}
