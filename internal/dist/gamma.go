package dist

import (
	"fmt"
	"math"
)

// Gamma is a gamma distribution with shape k and scale θ
// (mean kθ, variance kθ²). Section V of the paper approximates the total
// waiting time of a message through an n-stage network by a gamma
// distribution matched to the predicted mean and variance; this type is
// that approximation, with enough of the usual distribution interface to
// draw the smooth curves of Figures 3–8 and to compare tails.
type Gamma struct {
	Shape float64 // k
	Scale float64 // θ
}

// NewGamma validates and returns a Gamma{shape, scale}.
func NewGamma(shape, scale float64) (Gamma, error) {
	if shape <= 0 || math.IsNaN(shape) || math.IsInf(shape, 0) {
		return Gamma{}, fmt.Errorf("dist: gamma shape %g must be positive and finite", shape)
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return Gamma{}, fmt.Errorf("dist: gamma scale %g must be positive and finite", scale)
	}
	return Gamma{Shape: shape, Scale: scale}, nil
}

// GammaFromMoments returns the gamma distribution with the given mean and
// variance: shape = mean²/var, scale = var/mean. This is exactly the
// paper's matching rule.
func GammaFromMoments(mean, variance float64) (Gamma, error) {
	if mean <= 0 || variance <= 0 {
		return Gamma{}, fmt.Errorf("dist: gamma moment matching needs positive mean (%g) and variance (%g)", mean, variance)
	}
	return NewGamma(mean*mean/variance, variance/mean)
}

// Mean returns kθ.
func (g Gamma) Mean() float64 { return g.Shape * g.Scale }

// Variance returns kθ².
func (g Gamma) Variance() float64 { return g.Shape * g.Scale * g.Scale }

// PDF returns the density at x (0 for x < 0; the x = 0 endpoint returns
// the continuous limit, which is +Inf for shape < 1).
func (g Gamma) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case g.Shape < 1:
			return math.Inf(1)
		case g.Shape == 1:
			return 1 / g.Scale
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(g.Shape)
	return math.Exp((g.Shape-1)*math.Log(x) - x/g.Scale - lg - g.Shape*math.Log(g.Scale))
}

// CDF returns P(X ≤ x).
func (g Gamma) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	p, err := RegLowerGamma(g.Shape, x/g.Scale)
	if err != nil {
		return math.NaN()
	}
	return p
}

// Tail returns P(X > x).
func (g Gamma) Tail(x float64) float64 { return 1 - g.CDF(x) }

// Quantile returns the q-quantile for q in [0,1).
func (g Gamma) Quantile(q float64) (float64, error) {
	x, err := InvRegLowerGamma(g.Shape, q)
	if err != nil {
		return 0, err
	}
	return x * g.Scale, nil
}

// CellProb returns P(j - ½ < X ≤ j + ½), the probability the gamma
// approximation assigns to the integer lattice point j. The paper's
// figures compare the simulated histogram P(w = j) against exactly this
// discretization of the fitted gamma curve (with the j = 0 cell taken as
// P(X ≤ ½)).
func (g Gamma) CellProb(j int) float64 {
	if j < 0 {
		return 0
	}
	hi := g.CDF(float64(j) + 0.5)
	if j == 0 {
		return hi
	}
	return hi - g.CDF(float64(j)-0.5)
}

// Discretize returns the lattice discretization of g as a PMF over
// {0, …, n-1} with the residual tail folded into the last cell. Cell j
// is CellProb(j), with one CDF evaluation per cell: the upper edge
// j + ½ is, exactly in float64, the next cell's lower edge. Once an
// edge's CDF reads exactly 1 it stays 1 further out, so the remaining
// cells are 0 and are not evaluated.
func (g Gamma) Discretize(n int) PMF {
	if n < 1 {
		panic("dist: gamma discretization needs at least one cell")
	}
	p := make([]float64, n)
	acc, lo := 0.0, 0.0
	for j := 0; j < n && lo != 1; j++ {
		hi := g.CDF(float64(j) + 0.5)
		p[j] = hi - lo
		lo = hi
		acc += p[j]
	}
	if acc < 1 {
		p[n-1] += 1 - acc
	}
	// guard tiny negative from CDF roundoff
	for j := range p {
		if p[j] < 0 {
			p[j] = 0
		}
	}
	return PMF{p: p}
}
