package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"banyan/internal/dist"
	"banyan/internal/traffic"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.10g, want %.10g (tol %g)", msg, got, want, tol)
	}
}

func uniform(t *testing.T, k, s int, p float64) traffic.Arrivals {
	t.Helper()
	a, err := traffic.Uniform(k, s, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func constSvc(t *testing.T, m int) traffic.Service {
	t.Helper()
	sv, err := traffic.ConstService(m)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func TestUnstableRejected(t *testing.T) {
	_, err := New(uniform(t, 2, 2, 0.9), constSvc(t, 4)) // ρ = 3.6
	var un ErrUnstable
	if !errors.As(err, &un) {
		t.Fatalf("expected ErrUnstable, got %v", err)
	}
	if un.Rho != 3.6 {
		t.Fatalf("reported ρ = %g", un.Rho)
	}
	if un.Error() == "" {
		t.Fatal("empty error text")
	}
}

func TestZeroTraffic(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0), traffic.UnitService())
	almost(t, an.MeanWait(), 0, 0, "no arrivals → no wait")
	almost(t, an.VarWait(), 0, 0, "no arrivals → no variance")
	s, err := an.WaitPGF(16)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, s.Coeff(0), 1, 0, "wait identically zero")
}

// TestCanonicalOperatingPoint pins the paper's canonical numbers:
// k=2, p=0.5, m=1 → E w = 1/4, Var w = 1/4 (equations (6), (7)).
func TestCanonicalOperatingPoint(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0.5), traffic.UnitService())
	almost(t, an.MeanWait(), 0.25, 1e-12, "E w")
	almost(t, an.VarWait(), 0.25, 1e-12, "Var w")
	almost(t, an.Intensity(), 0.5, 0, "ρ")
}

// TestTransformMatchesMoments checks, over a spread of models, that the
// moments computed from the closed forms equal the moments of the
// distribution extracted from the transform — the strongest internal
// consistency check available, since the two paths share no code.
func TestTransformMatchesMoments(t *testing.T) {
	type model struct {
		name string
		arr  traffic.Arrivals
		svc  traffic.Service
		n    int
	}
	geom, err := traffic.GeomService(0.5, 512)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := traffic.MultiService([]traffic.SizeMix{{Size: 2, Prob: 0.6}, {Size: 7, Prob: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := traffic.Bulk(2, 2, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := traffic.Nonuniform(4, 0.6, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	hotX, err := traffic.NonuniformExclusive(4, 0.6, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pois, err := traffic.Poisson(0.4, 256)
	if err != nil {
		t.Fatal(err)
	}
	models := []model{
		{"uniform k2 p.5 m1", uniform(t, 2, 2, 0.5), traffic.UnitService(), 512},
		{"uniform k8 p.9 m1", uniform(t, 8, 8, 0.9), traffic.UnitService(), 2048},
		{"uniform k2 p.125 m4", uniform(t, 2, 2, 0.125), constSvc(t, 4), 1024},
		{"uniform k4 p.05 m8", uniform(t, 4, 4, 0.05), constSvc(t, 8), 1024},
		{"geometric", uniform(t, 2, 2, 0.2), geom, 1024},
		{"multi-size", uniform(t, 2, 2, 0.05), multi, 1024},
		{"bulk", bulk, traffic.UnitService(), 1024},
		{"hot paper", hot, traffic.UnitService(), 1024},
		{"hot exclusive", hotX, traffic.UnitService(), 1024},
		{"poisson", pois, constSvc(t, 2), 1024},
	}
	for _, m := range models {
		an, err := New(m.arr, m.svc)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		pmf, tail, err := an.WaitDistribution(m.n)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if math.Abs(tail) > 1e-6 {
			t.Fatalf("%s: truncation tail %g too large", m.name, tail)
		}
		almost(t, pmf.Mean(), an.MeanWait(), 2e-5*(1+an.MeanWait()), m.name+": mean")
		almost(t, pmf.Variance(), an.VarWait(), 2e-4*(1+an.VarWait()), m.name+": variance")
	}
}

// TestMomentDecomposition checks E w = E s + E w′ and Var w = Var s +
// Var w′ hold by construction and are individually sensible.
func TestMomentDecomposition(t *testing.T) {
	an := MustNew(uniform(t, 4, 4, 0.7), constSvc(t, 1))
	almost(t, an.MeanWait(), an.MeanUnfinishedWork()+an.MeanBatchWait(), 1e-12, "mean decomposition")
	almost(t, an.VarWait(), an.VarUnfinishedWork()+an.VarBatchWait(), 1e-12, "variance decomposition")
	if an.MeanUnfinishedWork() <= 0 || an.MeanBatchWait() <= 0 {
		t.Fatal("components must be positive at positive load")
	}
}

// TestUnfinishedWorkPGF checks Ψ against its known moments.
func TestUnfinishedWorkPGF(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0.6), traffic.UnitService())
	psi, err := an.UnfinishedWorkPGF(512)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, psi.Sum(), 1, 1e-9, "Ψ normalization")
	almost(t, psi.Mean(), an.MeanUnfinishedWork(), 1e-8, "Ψ mean")
	almost(t, psi.Variance(), an.VarUnfinishedWork(), 1e-6, "Ψ variance")
}

// TestDelayMoments: delay = wait + own service.
func TestDelayMoments(t *testing.T) {
	geom, err := traffic.GeomService(0.25, 1024)
	if err != nil {
		t.Fatal(err)
	}
	an := MustNew(uniform(t, 2, 2, 0.1), geom)
	almost(t, an.MeanDelay(), an.MeanWait()+4, 1e-6, "mean delay")
	almost(t, an.VarDelay(), an.VarWait()+geom.PMF().Variance(), 1e-6, "var delay")
	d, tail, err := an.DelayDistribution(2048)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tail) > 1e-6 {
		t.Fatalf("delay tail %g", tail)
	}
	almost(t, d.Mean(), an.MeanDelay(), 1e-3, "delay distribution mean")
	if d.Prob(0) != 0 {
		t.Fatal("delay includes ≥1 cycle of service")
	}
}

// TestWaitDistributionShape: CDF monotone, mass 1, atom at zero equals
// P(empty system ∧ first in batch) intuition bounds.
func TestWaitDistributionShape(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0.8), traffic.UnitService())
	pmf, _, err := an.WaitDistribution(1024)
	if err != nil {
		t.Fatal(err)
	}
	if pmf.Prob(0) <= 0 || pmf.Prob(0) >= 1 {
		t.Fatalf("P(w=0) = %g implausible", pmf.Prob(0))
	}
	// Tail decreasing beyond the mode and roughly geometric far out
	// (probed where the mass is still well above float precision).
	r1 := pmf.Prob(20) / pmf.Prob(15)
	r2 := pmf.Prob(25) / pmf.Prob(20)
	if pmf.Prob(15) <= 0 || math.Abs(r1-r2) > 0.05*r1 {
		t.Fatalf("tail not geometric: ratios %g vs %g", r1, r2)
	}
}

func TestWaitTailBound(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0.5), traffic.UnitService())
	pmf, _, err := an.WaitDistribution(256)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{0, 1, 5, 10} {
		tb, err := an.WaitTailBound(256, x)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, tb, pmf.Tail(x), 1e-9, "tail bound")
	}
}

// TestRandomizedModelsMatchSeries drives the closed-form moments against
// series numerics for randomized arrival/service laws (a property-style
// sweep with explicit RNG for reproducibility).
func TestRandomizedModelsMatchSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 40; trial++ {
		// Random arrival PMF on {0..4} and service PMF on {1..5},
		// scaled to keep ρ < 0.9.
		aw := make([]float64, 5)
		sum := 0.0
		for j := range aw {
			aw[j] = rng.Float64()
			if j > 0 {
				aw[j] *= 0.3 / float64(j*j)
			}
			sum += aw[j]
		}
		for j := range aw {
			aw[j] /= sum
		}
		sw := make([]float64, 4)
		ssum := 0.0
		for j := range sw {
			sw[j] = rng.Float64()
			ssum += sw[j]
		}
		svw := make([]float64, 5)
		for j := range sw {
			svw[j+1] = sw[j] / ssum
		}
		arrPMF, err := dist.NewPMF(aw)
		if err != nil {
			t.Fatal(err)
		}
		svcPMF, err := dist.NewPMF(svw)
		if err != nil {
			t.Fatal(err)
		}
		arr := traffic.CustomArrivals(arrPMF)
		svc, err := traffic.CustomService(svcPMF)
		if err != nil {
			t.Fatal(err)
		}
		if arr.Rate()*svc.Mean() >= 0.9 {
			continue
		}
		an, err := New(arr, svc)
		if err != nil {
			t.Fatal(err)
		}
		pmf, tail, err := an.WaitDistribution(4096)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(tail) > 1e-6 {
			continue // extremely heavy tail; skip precision check
		}
		almost(t, pmf.Mean(), an.MeanWait(), 1e-4*(1+an.MeanWait()),
			"randomized mean")
		almost(t, pmf.Variance(), an.VarWait(), 1e-3*(1+an.VarWait()),
			"randomized variance")
	}
}

func TestWaitPGFErrors(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0.5), traffic.UnitService())
	if _, err := an.WaitPGF(1); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, _, err := an.WaitDistribution(1); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestAccessors(t *testing.T) {
	arr := uniform(t, 2, 2, 0.5)
	svc := constSvc(t, 1)
	an := MustNew(arr, svc)
	if an.Arrivals().String() != arr.String() || an.Service().String() != svc.String() {
		t.Fatal("accessors lost models")
	}
	almost(t, an.Rate(), 0.5, 0, "rate")
	almost(t, an.MeanService(), 1, 0, "mean service")
}

// TestWaitDistributionAllocs bounds the allocations of one 512-term
// stage-1 model (k=2, p=0.8). Compose runs Horner's rule in two buffers
// from R's highest nonzero coefficient: 15 allocations, where a fresh
// product series per coefficient of R took 526.
func TestWaitDistributionAllocs(t *testing.T) {
	an := MustNew(uniform(t, 2, 2, 0.8), traffic.UnitService())
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := an.WaitDistribution(512); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("WaitDistribution(512) made %v allocations, want ≤ 20", allocs)
	}
}
