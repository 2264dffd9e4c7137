// Package delay implements Section V of the paper: the total waiting time
// of a message through an n-stage network, its variance including the
// geometric inter-stage covariance model, and the gamma approximation of
// its full distribution (the smooth curves of Figures 3–8).
package delay

import (
	"fmt"
	"math"

	"banyan/internal/core"
	"banyan/internal/dist"
	"banyan/internal/stages"
	"banyan/internal/traffic"
)

// Network is a delay predictor for an n-stage banyan network at a given
// operating point, under a Section IV approximation model.
type Network struct {
	Model  stages.Model
	Params stages.Params
	N      int // number of stages
}

// New validates and returns a predictor.
func New(md stages.Model, pr stages.Params, n int) (*Network, error) {
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("delay: stage count n = %d must be at least 1", n)
	}
	return &Network{Model: md, Params: pr, N: n}, nil
}

// MustNew is New that panics on invalid input.
func MustNew(md stages.Model, pr stages.Params, n int) *Network {
	nw, err := New(md, pr, n)
	if err != nil {
		panic(err)
	}
	return nw
}

// StageMeans returns the per-stage mean waits w₁ … w_n.
func (nw *Network) StageMeans() []float64 {
	out := make([]float64, nw.N)
	for i := 1; i <= nw.N; i++ {
		out[i-1] = nw.Model.StageMeanWait(nw.Params, i)
	}
	return out
}

// StageVars returns the per-stage wait variances v₁ … v_n.
func (nw *Network) StageVars() []float64 {
	out := make([]float64, nw.N)
	for i := 1; i <= nw.N; i++ {
		out[i-1] = nw.Model.StageVarWait(nw.Params, i)
	}
	return out
}

// TotalMeanWait returns E[Σ wᵢ], the sum of the per-stage approximations
// (the closed form below equation (12) is exactly this sum).
func (nw *Network) TotalMeanWait() float64 {
	acc := 0.0
	for _, w := range nw.StageMeans() {
		acc += w
	}
	return acc
}

// CovConstants returns the geometric covariance-decay constants of
// Section V: σ_{i,i+1} = a·vᵢ and σ_{i,i+j} = a·b^{j-1}·vᵢ, with
// a = (1 - 2mρ̃/5)·3mρ̃/(5k) and b = (1 - 2mρ̃/5)/k where the paper
// writes the constants in terms of mp (= traffic intensity ρ).
func (nw *Network) CovConstants() (a, b float64) {
	rho := nw.Params.Rho()
	k := float64(nw.Params.K)
	a = (1 - 2*rho/5) * 3 * rho / (5 * k)
	b = (1 - 2*rho/5) / k
	return
}

// TotalVarWaitIndependent returns Σ vᵢ — the prediction if stages were
// independent, the paper's first approximation.
func (nw *Network) TotalVarWaitIndependent() float64 {
	acc := 0.0
	for _, v := range nw.StageVars() {
		acc += v
	}
	return acc
}

// TotalVarWait returns the Section V covariance-corrected total variance:
// Σᵢ vᵢ·(1 + 2a(1 - b^{n-i})/(1 - b)).
func (nw *Network) TotalVarWait() float64 {
	a, b := nw.CovConstants()
	vs := nw.StageVars()
	acc := 0.0
	for i := 1; i <= nw.N; i++ {
		tail := float64(nw.N - i)
		geom := 0.0
		if b == 1 {
			geom = tail
		} else {
			geom = (1 - math.Pow(b, tail)) / (1 - b)
		}
		acc += vs[i-1] * (1 + 2*a*geom)
	}
	return acc
}

// Correlation returns a·b^{|i-j|-1} for stages i and j (1-based, i ≠ j;
// 1 when i = j), the Table VI shape. Despite its name this is the
// Section V covariance ratio σ_{i,j}/v_min(i,j), not a correlation: the
// two agree only where v_i = v_j, at spatial steady state. Earlier
// stages have v_{i+1} > v_i, so the correlation σ_{i,j}/√(v_i·v_j) sits
// below it: on the fast engine at k=2, n=8, p=0.8 the measured
// Corr(1,2) is 0.141, while Cov(1,2)/v_1 is 0.173 and a is 0.163. A
// check of simulated lag-1 covariance should compare Cov(i,i+1)/v_i
// with a, never the correlation.
func (nw *Network) Correlation(i, j int) float64 {
	if i == j {
		return 1
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	a, b := nw.CovConstants()
	return a * math.Pow(b, float64(d-1))
}

// TotalServiceTime returns the total service contribution to the network
// transit: with cut-through transmission of m-packet messages the service
// component is n + m - 1 cycles (Section V, last paragraph).
func (nw *Network) TotalServiceTime() int {
	return nw.N + nw.Params.M - 1
}

// TotalMeanDelay returns the mean total transit time: total waiting plus
// the n+m-1 cut-through service time.
func (nw *Network) TotalMeanDelay() float64 {
	return nw.TotalMeanWait() + float64(nw.TotalServiceTime())
}

// GammaApprox returns the gamma distribution matched to the predicted
// total-wait mean and covariance-corrected variance — the paper's
// approximation for the distribution of the total waiting time.
func (nw *Network) GammaApprox() (dist.Gamma, error) {
	return dist.GammaFromMoments(nw.TotalMeanWait(), nw.TotalVarWait())
}

// NormalApprox returns the central-limit (mean, stddev) pair for the total
// wait; the paper notes the gamma fit is better at the tails for small n
// but the normal limit justifies the shape for large n.
func (nw *Network) NormalApprox() (mean, stddev float64) {
	return nw.TotalMeanWait(), math.Sqrt(nw.TotalVarWait())
}

// PredictedPMF returns the lattice discretization of the gamma
// approximation over {0,…,n-1} cells, directly comparable to a simulated
// total-wait histogram.
func (nw *Network) PredictedPMF(cells int) (dist.PMF, error) {
	g, err := nw.GammaApprox()
	if err != nil {
		return dist.PMF{}, err
	}
	return g.Discretize(cells), nil
}

// ConvolutionPMF is an alternative predictor for the total-wait
// distribution: the exact stage-1 waiting-time distribution convolved
// with a single gamma block matched to the summed Section IV (wᵢ, vᵢ)
// moments of stages 2…n, treating stages as independent (the paper's
// Table VI shows inter-stage correlations ≤ 0.12, so independence is a
// mild assumption). It preserves the stage-1 atom at zero and skew that
// a single moment-matched gamma misses for shallow networks; the
// ablation benchmark compares the two predictors' total-variation
// distance against simulation.
func (nw *Network) ConvolutionPMF(cells int) (dist.PMF, error) {
	if cells < 2 {
		return dist.PMF{}, fmt.Errorf("delay: need at least two cells")
	}
	// Exact stage 1.
	arr, svc, err := nw.firstStageModel()
	if err != nil {
		return dist.PMF{}, err
	}
	an, err := core.New(arr, svc)
	if err != nil {
		return dist.PMF{}, err
	}
	total, _, err := an.WaitDistribution(cells)
	if err != nil {
		return dist.PMF{}, err
	}
	total = total.TrimTail(1e-12)
	// Stages 2…n as one moment-matched gamma block (a single lattice
	// discretization avoids accumulating per-stage rounding bias).
	var restW, restV float64
	for i := 2; i <= nw.N; i++ {
		restW += nw.Model.StageMeanWait(nw.Params, i)
		restV += nw.Model.StageVarWait(nw.Params, i)
	}
	if restW > 0 && restV > 0 {
		g, err := dist.GammaFromMoments(restW, restV)
		if err != nil {
			return dist.PMF{}, err
		}
		total = dist.Convolve(total, g.Discretize(cells).TrimTail(1e-12)).TrimTail(1e-12)
	}
	if total.Support() > cells {
		p := total.Probs()[:cells]
		rest := 0.0
		for j := cells; j < total.Support(); j++ {
			rest += total.Prob(j)
		}
		p[cells-1] += rest
		return dist.NewPMF(p)
	}
	return total, nil
}

// TotalDelayPMF returns the predicted distribution of the full network
// transit time: the convolution-predicted total wait shifted by the
// n+m-1 cut-through service (constant, so the shift is exact).
func (nw *Network) TotalDelayPMF(cells int) (dist.PMF, error) {
	w, err := nw.ConvolutionPMF(cells)
	if err != nil {
		return dist.PMF{}, err
	}
	return dist.Convolve(w, dist.PointPMF(nw.TotalServiceTime())), nil
}

// firstStageModel reconstructs the arrival/service pair of the operating
// point for the exact stage-1 distribution.
func (nw *Network) firstStageModel() (traffic.Arrivals, traffic.Service, error) {
	var arr traffic.Arrivals
	var err error
	if nw.Params.Q != 0 {
		arr, err = traffic.NonuniformExclusive(nw.Params.K, nw.Params.P, nw.Params.Q, 1)
	} else {
		arr, err = traffic.Uniform(nw.Params.K, nw.Params.K, nw.Params.P)
	}
	if err != nil {
		return traffic.Arrivals{}, traffic.Service{}, err
	}
	if nw.Params.M > 1 {
		svc, err := traffic.ConstService(nw.Params.M)
		return arr, svc, err
	}
	return arr, traffic.UnitService(), nil
}
