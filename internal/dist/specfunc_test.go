package dist

import (
	"math"
	"testing"
)

func TestRegLowerGammaKnownValues(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		p, err := RegLowerGamma(1, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, p, 1-math.Exp(-x), 1e-12, "P(1,x)")
	}
	// P(1/2, x) = erf(√x).
	for _, x := range []float64{0.25, 1, 4} {
		p, err := RegLowerGamma(0.5, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, p, math.Erf(math.Sqrt(x)), 1e-12, "P(1/2,x)")
	}
	// P(a, a) ≈ 1/2 for large a (median near mean).
	p, err := RegLowerGamma(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.45 || p > 0.55 {
		t.Fatalf("P(1000,1000) = %g, want ≈ 0.5", p)
	}
}

func TestRegGammaComplement(t *testing.T) {
	for _, a := range []float64{0.3, 1, 2.5, 7, 42} {
		for _, x := range []float64{0.01, 0.5, 1, 3, 10, 80} {
			p, err := RegLowerGamma(a, x)
			if err != nil {
				t.Fatal(err)
			}
			q, err := RegUpperGamma(a, x)
			if err != nil {
				t.Fatal(err)
			}
			almost(t, p+q, 1, 1e-12, "P+Q=1")
			if p < 0 || p > 1 {
				t.Fatalf("P(%g,%g) = %g out of [0,1]", a, x, p)
			}
		}
	}
}

func TestRegLowerGammaRecurrence(t *testing.T) {
	// P(a+1, x) = P(a, x) - x^a e^{-x} / Γ(a+1).
	for _, a := range []float64{0.7, 2, 5.5} {
		for _, x := range []float64{0.5, 2, 9} {
			p1, err := RegLowerGamma(a, x)
			if err != nil {
				t.Fatal(err)
			}
			p2, err := RegLowerGamma(a+1, x)
			if err != nil {
				t.Fatal(err)
			}
			lg, _ := math.Lgamma(a + 1)
			want := p1 - math.Exp(a*math.Log(x)-x-lg)
			almost(t, p2, want, 1e-11, "incomplete gamma recurrence")
		}
	}
}

func TestRegLowerGammaEdge(t *testing.T) {
	if _, err := RegLowerGamma(0, 1); err == nil {
		t.Fatal("expected error for a = 0")
	}
	if _, err := RegLowerGamma(1, -1); err == nil {
		t.Fatal("expected error for x < 0")
	}
	p, err := RegLowerGamma(3, 0)
	if err != nil || p != 0 {
		t.Fatalf("P(3,0) = %g, %v", p, err)
	}
	p, err = RegLowerGamma(3, math.Inf(1))
	if err != nil || p != 1 {
		t.Fatalf("P(3,∞) = %g, %v", p, err)
	}
}

func TestInvRegLowerGammaRoundtrip(t *testing.T) {
	for _, a := range []float64{0.4, 1, 2, 5, 20, 200} {
		for _, p := range []float64{0.001, 0.05, 0.25, 0.5, 0.9, 0.99, 0.9999} {
			x, err := InvRegLowerGamma(a, p)
			if err != nil {
				t.Fatal(err)
			}
			back, err := RegLowerGamma(a, x)
			if err != nil {
				t.Fatal(err)
			}
			almost(t, back, p, 1e-8, "inverse roundtrip")
		}
	}
}

func TestInvRegLowerGammaEdge(t *testing.T) {
	x, err := InvRegLowerGamma(2, 0)
	if err != nil || x != 0 {
		t.Fatalf("inv(2,0) = %g, %v", x, err)
	}
	if _, err := InvRegLowerGamma(2, 1); err == nil {
		t.Fatal("expected error for p = 1")
	}
	if _, err := InvRegLowerGamma(-1, 0.5); err == nil {
		t.Fatal("expected error for a < 0")
	}
}

func TestNormQuantile(t *testing.T) {
	almost(t, NormQuantile(0.5), 0, 1e-9, "median")
	almost(t, NormQuantile(0.975), 1.959964, 1e-4, "97.5%")
	almost(t, NormQuantile(0.025), -1.959964, 1e-4, "2.5%")
	almost(t, NormQuantile(0.8413447), 1.0, 1e-3, "84th pct")
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Fatal("endpoints must be ±Inf")
	}
	// Symmetry.
	for _, p := range []float64{0.01, 0.1, 0.3} {
		almost(t, NormQuantile(p), -NormQuantile(1-p), 1e-9, "symmetry")
	}
}

// TestRegLowerGammaStaysOne: once P(a, x) has rounded to exactly 1 it
// stays exactly 1 for every larger x, so Gamma.Discretize may stop at
// the first cell whose upper CDF edge reads 1 — every later cell is
// 1 - 1 = 0. It walks the cell edges (j + ½)/θ that Discretize
// evaluates, for shapes log-spaced over 0.01–40 (the drift monitor's
// stage ≥ 2 gammas reach shape ≈ 0.02 at light load) and scales
// 0.05–20, out to 1024 cells (the monitor's models have at least 256).
func TestRegLowerGammaStaysOne(t *testing.T) {
	var shapes []float64
	for a := 0.01; a <= 40; a *= 1.03 {
		shapes = append(shapes, a)
	}
	shapes = append(shapes, 40)
	scales := []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1, 1.5, 2, 3, 5, 10, 20}
	for _, a := range shapes {
		for _, scale := range scales {
			first := -1
			for j := 0; j < 1024; j++ {
				x := (float64(j) + 0.5) / scale
				p, err := RegLowerGamma(a, x)
				if err != nil {
					t.Fatalf("P(%g, %g): %v", a, x, err)
				}
				switch {
				case p == 1 && first < 0:
					first = j
				case p != 1 && first >= 0:
					t.Fatalf("P(%g, %g) = %v after reading 1 at cell %d (scale %g)", a, x, p, first, scale)
				}
			}
			// The check says nothing for a gamma that never reaches 1:
			// every one with mean below 64 cells must get there.
			if first < 0 && a*scale < 64 {
				t.Fatalf("gamma(%g, %g) with mean %g never reached 1 within 1024 cells", a, scale, a*scale)
			}
		}
	}
}
