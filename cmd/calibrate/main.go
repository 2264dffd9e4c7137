// Command calibrate re-runs the paper's Section IV methodology: simulate
// deep networks over a parameter grid, measure the ratio of the limiting
// waiting-time statistics to the exact first-stage values, and fit the
// interpolation constants of the approximation model. It prints the
// measured ratios, the fitted constants, and the resulting Model literal —
// this is how the constants shipped in stages.DefaultModel were obtained
// (several of the paper's own constants are OCR-damaged in the available
// text; see DESIGN.md §3).
//
// All simulation points are collected up front and executed as one batch
// on the sweep engine, so repeated operating points (the p = 0.5 columns
// appear in both the a(k) fit and the grid cross-check) run once, and
// -parallelism spreads the batch over cores without changing any number.
//
// Usage:
//
//	calibrate [-cycles 60000] [-warmup 6000] [-seed 1234] [-parallelism N] [-progress]
//	          [-timeout D] [-point-budget D] [-max-retries N]
//	          [-checkpoint FILE] [-resume]
//
// With -checkpoint, completed simulation points are journaled as they
// finish; after a Ctrl-C (or a -timeout), rerunning with -resume picks up
// where the run stopped and produces byte-identical output.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"banyan/internal/core"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/sweep"
	"banyan/internal/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("calibrate: ")
	cycles := flag.Int("cycles", 60000, "measured cycles per run")
	warmup := flag.Int("warmup", 6000, "warmup cycles per run")
	seed := flag.Uint64("seed", 1234, "root random seed")
	parallelism := flag.Int("parallelism", 0, "simulation worker count (0 = all cores); results are identical at every setting")
	progress := flag.Bool("progress", false, "log per-point sweep progress to stderr")
	var opts sweep.RunOptions
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()

	runner := &sweep.Runner{
		Parallelism: *parallelism,
		RootSeed:    *seed,
		Cache:       sweep.NewCache(),
	}
	if *progress {
		runner.Reporter = sweep.NewLogReporter(os.Stderr)
	}
	ctx, cleanup, err := opts.Apply(runner)
	if err != nil {
		log.Fatal(err)
	}
	defer cleanup()

	// Phase 1: collect every operating point the calibration needs.
	// deepPoint builds one deep-network run; the cycle count is capped so
	// that no run exceeds ~12M messages regardless of the network width.
	var pts []sweep.Point
	seen := map[string]bool{}
	add := func(p sweep.Point) {
		if !seen[p.Label] {
			seen[p.Label] = true
			pts = append(pts, p)
		}
	}
	deepLabel := func(k int, p, q float64) string {
		return fmt.Sprintf("deep/k=%d/p=%g/q=%g", k, p, q)
	}
	deepPoint := func(k, n int, p, q float64) sweep.Point {
		cfg := simnet.Config{K: k, Stages: n, P: p, Q: q, Warmup: *warmup}
		rows, _, err := cfg.Rows()
		if err != nil {
			log.Fatal(err)
		}
		cfg.Cycles = min(*cycles, int(12e6/(float64(rows)*p)))
		return sweep.Point{Label: deepLabel(k, p, q), Cfg: cfg}
	}
	mvarLabel := func(rho float64) string { return fmt.Sprintf("mvar/rho=%g", rho) }
	mvarPoint := func(rho float64) sweep.Point {
		m := 4
		p := rho / float64(m)
		svc, err := traffic.ConstService(m)
		if err != nil {
			log.Fatal(err)
		}
		cyc := *cycles
		if cap := int(12e6 / (256 * p)); cyc > cap {
			cyc = cap
		}
		return sweep.Point{
			Label: mvarLabel(rho),
			Cfg: simnet.Config{K: 2, Stages: 8, P: p, Service: svc,
				Cycles: cyc, Warmup: *warmup},
		}
	}

	stagesFor := map[int]int{2: 8, 4: 6, 8: 4}
	for _, k := range []int{2, 4, 8} {
		add(deepPoint(k, stagesFor[k], 0.5, 0)) // a(k) fit
		for _, p := range []float64{0.2, 0.5, 0.8} {
			add(deepPoint(k, stagesFor[k], p, 0)) // grid cross-check
		}
	}
	add(deepPoint(2, 8, 0.35, 0)) // (C1, C2) fit
	add(deepPoint(2, 8, 0.65, 0))
	qs := [2]float64{1.0 / 3, 0.9}
	for _, q := range qs {
		add(deepPoint(2, 8, 0.5, q)) // q-factor fit
	}
	rhos := []float64{0.2, 0.5, 0.8}
	for _, rho := range rhos {
		add(mvarPoint(rho)) // m ≥ 2 variance factor
	}

	// Phase 2: one batch over the whole grid.
	prs, err := runner.RunCtx(ctx, pts)
	if err != nil {
		cleanup()
		log.Fatal(err)
	}
	byLabel := make(map[string]*simnet.Result, len(prs))
	for _, pr := range prs {
		byLabel[pr.Point.Label] = pr.Result()
	}

	// Phase 3: read the fits off the completed batch.
	// deepRatios measures w∞/w₁ and v∞/v₁ (averaging the last two
	// simulated stages) for one operating point.
	deepRatios := func(k, n int, p, q float64) (wr, vr float64) {
		res := byLabel[deepLabel(k, p, q)]
		last := n - 1
		wInf := (res.StageWait[last].Mean() + res.StageWait[last-1].Mean()) / 2
		vInf := (res.StageWait[last].Variance() + res.StageWait[last-1].Variance()) / 2
		var w1, v1 float64
		if q > 0 {
			w1 = core.NonuniformExclusiveMeanWait(k, p, q, 1)
			v1 = core.NonuniformExclusiveVarWait(k, p, q, 1)
		} else {
			w1 = core.UniformServiceOneMeanWait(k, k, p)
			v1 = core.UniformServiceOneVarWait(k, k, p)
		}
		return wInf / w1, vInf / v1
	}

	// 1. Wait coefficient a(k): the paper fits r(p) = 1 + a·p at p = 0.5
	// (Section IV-A), then observes a ≈ 4/(5k).
	fmt.Println("== wait ratio r(p) = w∞/w₁ and fitted a(k) at p = 0.5 ==")
	for _, k := range []int{2, 4, 8} {
		wr, _ := deepRatios(k, stagesFor[k], 0.5, 0)
		a, err := stages.FitLinear(0.5, wr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("k=%d: r(0.5) = %.4f → a = %.4f   (model a = 4/(5k) = %.4f)\n",
			k, wr, a, 4.0/(5.0*float64(k)))
	}

	// 2. Variance coefficients (C1, C2) of v∞/v₁ = 1 + (C1·p + C2·p²)/k,
	// fit through two loads at k = 2 ("one higher power of p").
	fmt.Println("\n== variance ratio v∞/v₁ at k = 2 and fitted (C1, C2) ==")
	_, vr35 := deepRatios(2, 8, 0.35, 0)
	_, vr65 := deepRatios(2, 8, 0.65, 0)
	varC1, varC2, err := stages.FitQuadratic(0.35, 1+(vr35-1)*2, 0.65, 1+(vr65-1)*2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("v ratios %.4f @p=.35, %.4f @p=.65 → C1 = %.3f, C2 = %.3f   (model: 0.65, 1.70)\n",
		vr35, vr65, varC1, varC2)

	// Cross-check the shipped model across the grid.
	fmt.Println("\n== shipped model vs. fresh simulation across the grid ==")
	md := stages.DefaultModel()
	for _, k := range []int{2, 4, 8} {
		for _, p := range []float64{0.2, 0.5, 0.8} {
			wr, vr := deepRatios(k, stagesFor[k], p, 0)
			pr := stages.Params{K: k, M: 1, P: p}
			fmt.Printf("k=%d p=%.2f: sim (w %.4f, v %.4f)  model (w %.4f, v %.4f)\n",
				k, p, wr, vr, md.RatioOfLimits(pr),
				md.LimitVarWait(pr)/md.FirstStageVar(pr))
		}
	}

	// 3. Nonuniform-traffic factors (Section IV-D): quadratic
	// q-corrections at k = 2, p = 0.5, relative to the exclusive
	// first-stage law and the uniform limiting ratios.
	fmt.Println("\n== nonuniform q factors at k = 2, p = 0.5 ==")
	baseW := 1 + md.WaitA(2)*0.5
	baseV := 1 + (md.VarC1*0.5+md.VarC2*0.25)/2
	var fw, fv [2]float64
	for i, q := range qs {
		wr, vr := deepRatios(2, 8, 0.5, q)
		fw[i] = wr / baseW
		fv[i] = vr / baseV
		fmt.Printf("q=%.3f: w factor %.4f, v factor %.4f\n", q, fw[i], fv[i])
	}
	qw1, qw2, err := stages.FitQuadratic(qs[0], fw[0], qs[1], fw[1])
	if err != nil {
		log.Fatal(err)
	}
	qv1, qv2, err := stages.FitQuadratic(qs[0], fv[0], qs[1], fv[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted: QWait = (%.3f, %.3f), QVar = (%.3f, %.3f)   (model: %.3f, %.3f / %.3f, %.3f)\n",
		qw1, qw2, qv1, qv2, md.QWait1, md.QWait2, md.QVar1, md.QVar2)

	// 4. Large-message (m ≥ 2) variance factor: measure
	// v∞/(m²·v̄₁(ρ)) at m = 4, k = 2 across loads and compare with the
	// shipped VarM0 + VarMSlope·ρ + (VarMC1·ρ + VarMC2·ρ²)/k surface.
	fmt.Println("\n== m ≥ 2 variance factor at m = 4, k = 2 ==")
	for _, rho := range rhos {
		res := byLabel[mvarLabel(rho)]
		v := (res.StageWait[7].Variance() + res.StageWait[6].Variance()) / 2
		vbar := 0.5 * rho * (6 - 5*rho*1.5 + 2*rho*rho*1.5) / (12 * (1 - rho) * (1 - rho))
		sim := v / (16 * vbar)
		model := md.LimitVarWait(stages.Params{K: 2, M: 4, P: rho / 4}) / (16 * vbar)
		fmt.Printf("ρ=%.2f: sim factor %.4f, model %.4f\n", rho, sim, model)
	}

	fmt.Println("\n== resulting model literal ==")
	fmt.Printf(`Model{
	Alpha: 2.0 / 5.0,
	WaitA: func(k int) float64 { return 4.0 / (5.0 * float64(k)) },
	VarC1: %.3f, VarC2: %.3f,
	VarM0: 0.7, VarMSlope: 0.3, VarMC1: 0.28, VarMC2: 2.23,
	QWait1: %.3f, QWait2: %.3f,
	QVar1: %.3f, QVar2: %.3f,
}
`, varC1, varC2, qw1, qw2, qv1, qv2)
}
