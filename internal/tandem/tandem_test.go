package tandem

import (
	"math"
	"testing"

	"banyan/internal/core"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/traffic"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.8g, want %.8g (tol %g)", msg, got, want, tol)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(0, 1, 16, 16, 100, 1e-9); err == nil {
		t.Fatal("expected p validation")
	}
	if _, err := Solve(1, 1, 16, 16, 100, 1e-9); err == nil {
		t.Fatal("expected p validation")
	}
	if _, err := Solve(0.5, 1, 2, 16, 100, 1e-9); err == nil {
		t.Fatal("expected truncation validation")
	}
	if _, err := Solve(0.5, 1, 16, 16, 0, 1e-9); err == nil {
		t.Fatal("expected sweeps validation")
	}
}

// TestStage1Consistency: the chain's stage-1 marginal must reproduce the
// closed-form first-stage wait p/(4(1-p)).
func TestStage1Consistency(t *testing.T) {
	for _, p := range []float64{0.2, 0.5, 0.8} {
		r, err := Solve(p, 1, 40, 48, 8000, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		want := core.UniformServiceOneMeanWait(2, 2, p)
		almost(t, r.MeanWait1, want, 1e-6*(1+want), "stage-1 wait from chain")
		if r.Residual > 1e-10 {
			t.Fatalf("p=%g: residual %g did not converge", p, r.Residual)
		}
	}
}

// TestStage2MatchesSimulation: the exact chain and the fast simulator
// must agree on the stage-2 waiting-time mean and variance.
func TestStage2MatchesSimulation(t *testing.T) {
	for _, p := range []float64{0.3, 0.5, 0.7} {
		r, err := Solve(p, 1, 40, 48, 8000, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		cfg := &simnet.Config{K: 2, Stages: 2, P: p, Cycles: 60000, Warmup: 3000, Seed: 64}
		res, err := simnet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim := res.StageWait[1]
		se := 4 * sim.StdDev() / math.Sqrt(float64(sim.N()))
		almost(t, r.MeanWait2, sim.Mean(), se+0.01*(1+sim.Mean()), "stage-2 mean vs sim")
		almost(t, r.VarWait2, sim.Variance(), 0.05*(1+sim.Variance()), "stage-2 var vs sim")
	}
}

// TestStage2AgainstApproximation: the exact stage-2 wait sits between the
// stage-1 value and the w∞ limit, and close to the Section IV stage-2
// interpolation w₂ = w₁ + (w∞-w₁)(1-α).
func TestStage2AgainstApproximation(t *testing.T) {
	md := stages.DefaultModel()
	for _, p := range []float64{0.2, 0.5, 0.8} {
		r, err := Solve(p, 1, 48, 64, 12000, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		pr := stages.Params{K: 2, M: 1, P: p}
		w1 := md.FirstStageMean(pr)
		winf := md.LimitMeanWait(pr)
		if r.MeanWait2 <= w1 || r.MeanWait2 >= winf {
			t.Fatalf("p=%g: exact stage-2 %g not in (w1=%g, w∞=%g)", p, r.MeanWait2, w1, winf)
		}
		approx := md.StageMeanWait(pr, 2)
		almost(t, r.MeanWait2, approx, 0.05*approx, "stage-2 vs Section IV interpolation")
	}
}

// TestWait2Distribution: the exact stage-2 waiting-time distribution is a
// proper distribution with a geometric-ish tail.
func TestWait2Distribution(t *testing.T) {
	r, err := Solve(0.5, 1, 40, 48, 8000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for j := 0; j < r.Wait2.Support(); j++ {
		sum += r.Wait2.Prob(j)
	}
	almost(t, sum, 1, 1e-9, "wait2 mass")
	if r.Wait2.Prob(0) < 0.5 || r.Wait2.Prob(0) > 0.9 {
		t.Fatalf("P(w2=0) = %g implausible at ρ=0.5", r.Wait2.Prob(0))
	}
	// Monotone decreasing tail.
	for j := 2; j < 12; j++ {
		if r.Wait2.Prob(j) > r.Wait2.Prob(j-1)+1e-12 {
			t.Fatalf("wait2 pmf not decreasing at %d", j)
		}
	}
}

// TestTruncationInsensitive: enlarging the truncation does not move the
// answer (the clipped mass is negligible).
func TestTruncationInsensitive(t *testing.T) {
	a, err := Solve(0.5, 1, 24, 32, 6000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(0.5, 1, 40, 56, 6000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, a.MeanWait2, b.MeanWait2, 1e-8, "truncation stability (mean)")
	almost(t, a.VarWait2, b.VarWait2, 1e-7, "truncation stability (variance)")
}

// TestSolveUnitServicePins pins the m = 1 moments to the values of the
// unit-service solver this one replaced, at t1 = 40, t2 = 56.
func TestSolveUnitServicePins(t *testing.T) {
	for _, c := range []struct{ p, mean2, var2, mean1 float64 }{
		{0.2, 0.065618249487629357, 0.063805786295165853, 0.062499999999999556},
		{0.35, 0.14632624910759326, 0.14540614689301945, 0.13461538461538389},
		{0.5, 0.28093808190840514, 0.30397658068583139, 0.24999999999999972},
		{0.65, 0.53870668842888492, 0.70940189053718028, 0.46428571428571253},
		{0.8, 1.1970660032430278, 2.4145170271370771, 0.99999999999959188},
	} {
		r, err := Solve(c.p, 1, 40, 56, 12000, 1e-13)
		if err != nil {
			t.Fatal(err)
		}
		almost(t, r.MeanWait2, c.mean2, 1e-10*c.mean2, "stage-2 mean")
		almost(t, r.VarWait2, c.var2, 1e-10*c.var2, "stage-2 variance")
		almost(t, r.MeanWait1, c.mean1, 1e-10*c.mean1, "stage-1 mean")
	}
}

func TestSolveMValidation(t *testing.T) {
	if _, err := Solve(0.5, 0, 16, 16, 100, 1e-9); err == nil {
		t.Fatal("expected m validation")
	}
	if _, err := Solve(0.5, 4, 16, 16, 100, 1e-9); err == nil {
		t.Fatal("expected stability validation (ρ=2)")
	}
	if _, err := Solve(0.25, 2, 2, 16, 100, 1e-9); err == nil {
		t.Fatal("expected truncation validation")
	}
}

// TestSolveMStage1Consistency: the feeder marginal reproduces the exact
// first-stage formula (8) for constant service m.
func TestSolveMStage1Consistency(t *testing.T) {
	p, m := 0.25, 2 // ρ = 0.5
	r, err := Solve(p, m, 28, 36, 9000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	want := core.ConstServiceMeanWait(2, 2, p, m)
	almost(t, r.MeanWait1, want, 1e-5*(1+want), "stage-1 wait from chain vs eq (8)")
	if r.Residual > 1e-10 {
		t.Fatalf("residual %g did not converge", r.Residual)
	}
}

// TestSolveMStage2MatchesSimulation: the exact chain agrees with the
// simulator's stage-2 statistics for m = 2.
func TestSolveMStage2MatchesSimulation(t *testing.T) {
	p, m := 0.25, 2
	r, err := Solve(p, m, 28, 36, 9000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := traffic.ConstService(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &simnet.Config{K: 2, Stages: 2, P: p, Service: svc, Cycles: 80000, Warmup: 4000, Seed: 73}
	res, err := simnet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := res.StageWait[1]
	almost(t, r.MeanWait2, sim.Mean(), 0.02*(1+sim.Mean()), "stage-2 mean vs sim")
	almost(t, r.VarWait2, sim.Variance(), 0.05*(1+sim.Variance()), "stage-2 var vs sim")
}

// TestSolveMAgainstScaledModel: the Section IV-B scaled model (w∞ for
// m ≥ 2) should sit near the exact stage-2 value — the paper applies it
// from stage 2 on.
func TestSolveMAgainstScaledModel(t *testing.T) {
	md := stages.DefaultModel()
	p, m := 0.25, 2 // ρ = 0.5
	r, err := Solve(p, m, 28, 36, 9000, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	approx := md.StageMeanWait(stages.Params{K: 2, M: m, P: p}, 2)
	// The scaled model is cruder for m ≥ 2 (the paper's Table III shows
	// it runs a few % low at stage 2); require 10%.
	almost(t, approx, r.MeanWait2, 0.10*r.MeanWait2, "Section IV-B scaled model vs exact stage 2")
	// Exact stage 2 is lighter than exact stage 1 (the spacing effect).
	if r.MeanWait2 >= r.MeanWait1 {
		t.Fatalf("stage 2 (%g) not lighter than stage 1 (%g) for m=2", r.MeanWait2, r.MeanWait1)
	}
}
