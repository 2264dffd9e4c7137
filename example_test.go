package banyan_test

import (
	"fmt"

	"banyan"
)

// The canonical operating point of the paper: a 2×2 switch, p = 0.5,
// unit service. Equation (6) gives E w = ¼ and (7) gives Var w = ¼.
func ExampleAnalyze() {
	arr, err := banyan.UniformTraffic(2, 2, 0.5)
	if err != nil {
		panic(err)
	}
	an, err := banyan.Analyze(arr, banyan.UnitService())
	if err != nil {
		panic(err)
	}
	fmt.Printf("E[w] = %.4f, Var[w] = %.4f, ρ = %.2f\n",
		an.MeanWait(), an.VarWait(), an.Intensity())
	// Output:
	// E[w] = 0.2500, Var[w] = 0.2500, ρ = 0.50
}

// Theorem 1 yields the whole distribution, not just moments: the series
// coefficients of the waiting-time transform are P(w = j).
func ExampleAnalysis_WaitDistribution() {
	arr, _ := banyan.UniformTraffic(2, 2, 0.5)
	an, _ := banyan.Analyze(arr, banyan.UnitService())
	pmf, _, err := an.WaitDistribution(64)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(w=0) = %.4f\n", pmf.Prob(0))
	fmt.Printf("P(w=1) = %.4f\n", pmf.Prob(1))
	fmt.Printf("p99    = %d cycles\n", pmf.Quantile(0.99))
	// Output:
	// P(w=0) = 0.7778
	// P(w=1) = 0.1975
	// p99    = 2 cycles
}

// Messages of constant size m wait like a unit-service network with the
// clock slowed by m: at fixed intensity ρ the mean wait is linear in m
// (equation (8)) and the variance quadratic (equation (9)).
func ExampleConstService() {
	for _, m := range []int{1, 2, 4} {
		p := 0.5 / float64(m) // keep ρ = 0.5
		arr, _ := banyan.UniformTraffic(2, 2, p)
		svc, _ := banyan.ConstService(m)
		an, _ := banyan.Analyze(arr, svc)
		fmt.Printf("m=%d: E[w] = %.4f, Var[w] = %.4f\n", m, an.MeanWait(), an.VarWait())
	}
	// Output:
	// m=1: E[w] = 0.2500, Var[w] = 0.2500
	// m=2: E[w] = 0.7500, Var[w] = 1.5000
	// m=4: E[w] = 1.7500, Var[w] = 7.5000
}

// Predict the total waiting time through a 6-stage network and its gamma
// approximation (Section V).
func ExamplePredict() {
	nw, err := banyan.Predict(banyan.OperatingPoint{K: 2, M: 1, P: 0.5}, 6)
	if err != nil {
		panic(err)
	}
	g, err := nw.GammaApprox()
	if err != nil {
		panic(err)
	}
	fmt.Printf("total E[w] = %.4f\n", nw.TotalMeanWait())
	fmt.Printf("total Var  = %.4f\n", nw.TotalVarWait())
	fmt.Printf("gamma shape = %.3f scale = %.3f\n", g.Shape, g.Scale)
	// Output:
	// total E[w] = 1.7170
	// total Var  = 2.4437
	// gamma shape = 1.206 scale = 1.423
}

// The inter-stage covariance model of Section V: covariances decay
// geometrically, σ(i, i+j) = a·b^(j-1)·v_i. Correlation returns the
// ratio σ(i, i+j)/v_i, which equals the correlation only at spatial
// steady state.
func ExampleDelayPredictor_Correlation() {
	nw, _ := banyan.Predict(banyan.OperatingPoint{K: 2, M: 1, P: 0.5}, 7)
	for lag := 1; lag <= 3; lag++ {
		fmt.Printf("corr(stage 1, stage %d) = %.4f\n", 1+lag, nw.Correlation(1, 1+lag))
	}
	// Output:
	// corr(stage 1, stage 2) = 0.1200
	// corr(stage 1, stage 3) = 0.0480
	// corr(stage 1, stage 4) = 0.0192
}

// Hot-spot traffic: the exact physical-switch law vs the paper's
// product-form idealization (Section III-A-3).
func ExampleHotSpotTraffic() {
	exact, _ := banyan.HotSpotTraffic(2, 0.5, 0.1, 1)
	paper, _ := banyan.HotSpotPaperTraffic(2, 0.5, 0.1, 1)
	anX, _ := banyan.Analyze(exact, banyan.UnitService())
	anP, _ := banyan.Analyze(paper, banyan.UnitService())
	fmt.Printf("exclusive law: E[w] = %.4f\n", anX.MeanWait())
	fmt.Printf("paper form:    E[w] = %.4f\n", anP.MeanWait())
	// Output:
	// exclusive law: E[w] = 0.2475
	// paper form:    E[w] = 0.2925
}

// Buffer sizing from the unfinished-work tail (the paper's finite-buffer
// future work).
func ExampleAnalysis_SizeBufferForOverflow() {
	arr, _ := banyan.UniformTraffic(2, 2, 0.6)
	an, _ := banyan.Analyze(arr, banyan.UnitService())
	for _, eps := range []float64{1e-2, 1e-3, 1e-4} {
		b, err := an.SizeBufferForOverflow(eps)
		if err != nil {
			panic(err)
		}
		fmt.Printf("overflow ≤ %g needs %d packet-cycles of buffer\n", eps, b)
	}
	// Output:
	// overflow ≤ 0.01 needs 2 packet-cycles of buffer
	// overflow ≤ 0.001 needs 4 packet-cycles of buffer
	// overflow ≤ 0.0001 needs 5 packet-cycles of buffer
}

// Exact finite-buffer analysis: the Markov chain of a unit-service queue
// with a finite waiting room gives drop probabilities without simulation.
func ExampleAnalyzeFiniteBuffer() {
	arr, _ := banyan.UniformTraffic(2, 2, 0.8)
	for _, b := range []int{2, 4, 8} {
		q, err := banyan.AnalyzeFiniteBuffer(arr, b)
		if err != nil {
			panic(err)
		}
		fmt.Printf("B=%d: drop %.5f, admitted wait %.4f\n", b, q.DropProb(), q.MeanWait())
	}
	// Output:
	// B=2: drop 0.06154, admitted wait 0.4098
	// B=4: drop 0.01015, admitted wait 0.8052
	// B=8: drop 0.00038, admitted wait 0.9851
}

// The geometric tail of the waiting time, straight from the dominant
// singularity of the transform.
func ExampleAnalysis_TailDecayRate() {
	arr, _ := banyan.UniformTraffic(2, 2, 0.8)
	an, _ := banyan.Analyze(arr, banyan.UnitService())
	r, err := an.TailDecayRate()
	if err != nil {
		panic(err)
	}
	fmt.Printf("P(w = j+1)/P(w = j) → %.6f\n", r)
	// Output:
	// P(w = j+1)/P(w = j) → 0.444444
}

// Omega-network routing is digit-controlled (Fig. 1 of the paper).
func ExampleNewTopology() {
	top, _ := banyan.NewTopology(2, 4) // 16×16, 4 stages of 2×2 switches
	rows := top.Route(5, 12)
	fmt.Printf("route 5 → 12 visits rows %v\n", rows)
	// Output:
	// route 5 → 12 visits rows [11 7 14 12]
}
