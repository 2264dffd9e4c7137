package dist

import (
	"math"
	"testing"
)

func TestNewGammaValidation(t *testing.T) {
	if _, err := NewGamma(0, 1); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := NewGamma(1, -2); err == nil {
		t.Fatal("expected scale error")
	}
	if _, err := NewGamma(math.NaN(), 1); err == nil {
		t.Fatal("expected NaN error")
	}
	g, err := NewGamma(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, g.Mean(), 6, 0, "mean")
	almost(t, g.Variance(), 18, 0, "variance")
}

func TestGammaFromMoments(t *testing.T) {
	g, err := GammaFromMoments(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, g.Mean(), 4, 1e-12, "matched mean")
	almost(t, g.Variance(), 8, 1e-12, "matched variance")
	if _, err := GammaFromMoments(0, 1); err == nil {
		t.Fatal("expected error for zero mean")
	}
	if _, err := GammaFromMoments(1, 0); err == nil {
		t.Fatal("expected error for zero variance")
	}
}

func TestGammaExponentialSpecialCase(t *testing.T) {
	// shape 1 = Exponential(1/scale).
	g, _ := NewGamma(1, 2)
	almost(t, g.PDF(0), 0.5, 1e-12, "exp pdf at 0")
	almost(t, g.PDF(2), 0.5*math.Exp(-1), 1e-12, "exp pdf")
	almost(t, g.CDF(2), 1-math.Exp(-1), 1e-12, "exp cdf")
	q, err := g.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, q, 2*math.Ln2, 1e-8, "exp median")
}

func TestGammaPDFIntegratesToCDF(t *testing.T) {
	g, _ := NewGamma(2.7, 1.3)
	// Trapezoid integration of the PDF vs the CDF.
	const h = 1e-3
	acc := 0.0
	x := 0.0
	for x < 10 {
		acc += h * (g.PDF(x) + g.PDF(x+h)) / 2
		x += h
	}
	almost(t, acc, g.CDF(10), 1e-5, "∫pdf = cdf")
}

func TestGammaPDFEndpoint(t *testing.T) {
	gSub, _ := NewGamma(0.5, 1)
	if !math.IsInf(gSub.PDF(0), 1) {
		t.Fatal("shape<1 density must blow up at 0")
	}
	gSuper, _ := NewGamma(2, 1)
	almost(t, gSuper.PDF(0), 0, 0, "shape>1 density at 0")
	almost(t, gSuper.PDF(-1), 0, 0, "density below 0")
}

func TestGammaQuantileRoundtrip(t *testing.T) {
	g, _ := NewGamma(3.3, 0.7)
	for _, p := range []float64{0.01, 0.2, 0.5, 0.9, 0.999} {
		x, err := g.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, g.CDF(x), p, 1e-8, "quantile roundtrip")
	}
}

func TestGammaDiscretize(t *testing.T) {
	g, _ := NewGamma(2, 1.5)
	d := g.Discretize(64)
	sum := 0.0
	for j := 0; j < d.Support(); j++ {
		sum += d.Prob(j)
	}
	almost(t, sum, 1, 1e-9, "discretization mass")
	// Cell probabilities must match CDF differences.
	almost(t, d.Prob(0), g.CDF(0.5), 1e-12, "cell 0")
	almost(t, d.Prob(3), g.CDF(3.5)-g.CDF(2.5), 1e-12, "cell 3")
	// Discretized mean close to continuous mean.
	almost(t, d.Mean(), g.Mean(), 0.05, "discretized mean")
}

func TestGammaCellProb(t *testing.T) {
	g, _ := NewGamma(1.5, 2)
	if g.CellProb(-1) != 0 {
		t.Fatal("negative cell must be 0")
	}
	sum := 0.0
	for j := 0; j < 200; j++ {
		sum += g.CellProb(j)
	}
	almost(t, sum, 1, 1e-9, "cells sum to 1")
}

func TestGammaTail(t *testing.T) {
	g, _ := NewGamma(4, 1)
	almost(t, g.Tail(0), 1, 1e-12, "tail at 0")
	if g.Tail(100) > 1e-12 {
		t.Fatal("far tail should vanish")
	}
	// Tail is decreasing.
	prev := 1.0
	for x := 0.5; x < 20; x += 0.5 {
		tl := g.Tail(x)
		if tl > prev+1e-12 {
			t.Fatalf("tail increased at %g", x)
		}
		prev = tl
	}
}

// TestDiscretizeMatchesCellProb: Discretize carries each cell's upper
// CDF value forward as the next cell's lower one; its cells must have
// the bits of the CellProb sum it replaced, residual tail and negative
// clamp included.
func TestDiscretizeMatchesCellProb(t *testing.T) {
	for _, shape := range []float64{0.02, 0.17, 0.4, 1, 3.7} {
		g, err := NewGamma(shape, 2.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 256} {
			want := make([]float64, n)
			acc := 0.0
			for j := range want {
				want[j] = g.CellProb(j)
				acc += want[j]
			}
			if acc < 1 {
				want[n-1] += 1 - acc
			}
			for j := range want {
				if want[j] < 0 {
					want[j] = 0
				}
			}
			d := g.Discretize(n)
			for j, w := range want {
				if math.Float64bits(d.Prob(j)) != math.Float64bits(w) {
					t.Fatalf("shape %g, n=%d: cell %d = %v, CellProb sum %v", shape, n, j, d.Prob(j), w)
				}
			}
		}
	}
}
