package banyan_test

import (
	"math"
	"reflect"
	"testing"

	"banyan"
	"banyan/internal/sweep"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.6g, want %.6g (tol %g)", msg, got, want, tol)
	}
}

// TestEndToEnd exercises the full public workflow: model → exact analysis
// → network prediction → simulation, and cross-checks all three.
func TestEndToEnd(t *testing.T) {
	arr, err := banyan.UniformTraffic(2, 2, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	an, err := banyan.Analyze(arr, banyan.UnitService())
	if err != nil {
		t.Fatal(err)
	}
	almost(t, an.MeanWait(), 0.25, 1e-12, "exact mean")
	almost(t, an.VarWait(), 0.25, 1e-12, "exact variance")

	nw, err := banyan.Predict(banyan.OperatingPoint{K: 2, M: 1, P: 0.5}, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := banyan.Simulate(&banyan.SimConfig{
		K: 2, Stages: 6, P: 0.5, Cycles: 15000, Warmup: 1500, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.MeanTotalWait(), nw.TotalMeanWait(), 0.05*(1+nw.TotalMeanWait()), "total mean")
	almost(t, res.VarTotalWait(), nw.TotalVarWait(), 0.10*(1+nw.TotalVarWait()), "total variance")

	g, err := nw.GammaApprox()
	if err != nil {
		t.Fatal(err)
	}
	// The gamma approximation tracks the simulated tail.
	q95, err := g.Quantile(0.95)
	if err != nil {
		t.Fatal(err)
	}
	simTail := res.TotalWait.Tail(int(math.Ceil(q95)))
	if simTail > 0.09 || simTail < 0.01 {
		t.Fatalf("sim tail beyond model p95 = %g, want ≈ 0.05", simTail)
	}
}

func TestFacadeTrafficConstructors(t *testing.T) {
	if _, err := banyan.UniformTraffic(0, 2, 0.5); err == nil {
		t.Fatal("expected constructor validation to propagate")
	}
	bulk, err := banyan.BulkTraffic(2, 2, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, bulk.Rate(), 0.4, 1e-12, "bulk rate")
	hot, err := banyan.HotSpotTraffic(2, 0.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := banyan.HotSpotPaperTraffic(2, 0.5, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hot.FactorialMoment(2) >= paper.FactorialMoment(2) {
		t.Fatal("paper model should dominate exclusive model")
	}
	pois, err := banyan.PoissonTraffic(0.3, 64)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, pois.Rate(), 0.3, 1e-9, "poisson rate")
	custom := banyan.CustomTraffic(pois.PMF())
	almost(t, custom.Rate(), 0.3, 1e-9, "custom rate")
}

func TestFacadeServiceConstructors(t *testing.T) {
	if _, err := banyan.ConstService(0); err == nil {
		t.Fatal("expected service validation")
	}
	ms, err := banyan.MultiService([]banyan.SizeMix{{Size: 2, Prob: 0.5}, {Size: 4, Prob: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, ms.Mean(), 3, 1e-12, "multi mean")
	gs, err := banyan.GeomService(0.5, 256)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, gs.Mean(), 2, 1e-6, "geom mean")
	almost(t, banyan.UnitService().Mean(), 1, 0, "unit mean")
}

func TestFacadeTopology(t *testing.T) {
	top, err := banyan.NewTopology(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if top.Size() != 64 {
		t.Fatalf("size %d", top.Size())
	}
}

func TestFacadeEngines(t *testing.T) {
	cfg := &banyan.SimConfig{K: 2, Stages: 3, P: 0.4, Cycles: 4000, Warmup: 400, Seed: 9}
	tr, err := banyan.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := banyan.SimulateTrace(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	lit, err := banyan.SimulateLiteral(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, lit.MeanTotalWait(), fast.MeanTotalWait(), 0.03*(1+fast.MeanTotalWait()), "engines agree")
}

func TestFacadeModels(t *testing.T) {
	md := banyan.DefaultApproxModel()
	pt := banyan.OperatingPoint{K: 2, M: 1, P: 0.5}
	almost(t, md.LimitMeanWait(pt), 0.3, 1e-9, "w∞ anchor")
	nw, err := banyan.PredictWith(md, pt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if nw.TotalMeanWait() <= 0 {
		t.Fatal("prediction must be positive")
	}
	if banyan.QuickScale().TargetMessages >= banyan.FullScale().TargetMessages {
		t.Fatal("scales inverted")
	}
}

// TestSimulateReplications: the facade rejects a replication count
// below one and an invalid config, its aggregate does not depend on the
// parallelism, and it is exactly the aggregate of a one-point sweep
// rooted at cfg.Seed.
func TestSimulateReplications(t *testing.T) {
	cfg := &banyan.SimConfig{K: 2, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 100, Seed: 55}
	if _, err := banyan.SimulateReplications(cfg, 0, 1); err == nil {
		t.Fatal("zero replications accepted")
	}
	bad := &banyan.SimConfig{K: 1, Stages: 3, P: 0.4, Cycles: 1000}
	if _, err := banyan.SimulateReplications(bad, 2, 1); err == nil {
		t.Fatal("invalid config accepted")
	}

	one, err := banyan.SimulateReplications(cfg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := banyan.SimulateReplications(cfg, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if one.Replications() != 4 || !reflect.DeepEqual(one, four) {
		t.Fatal("parallelism changed the aggregate")
	}
	if one.Runs[0].MeanTotalWait() == one.Runs[1].MeanTotalWait() &&
		one.Runs[1].MeanTotalWait() == one.Runs[2].MeanTotalWait() {
		t.Fatal("replications identical — seed splitting failed")
	}

	prs, err := (&sweep.Runner{RootSeed: cfg.Seed}).Run([]sweep.Point{{Cfg: *cfg, Reps: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, prs[0].Agg) {
		t.Fatal("facade aggregate differs from a one-point sweep's")
	}
}
