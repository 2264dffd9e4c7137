package experiments

import (
	"math"
	"strings"
	"testing"

	"banyan/internal/simnet"
	"banyan/internal/sweep"
)

// testScale keeps the experiment tests fast while leaving enough samples
// for the shape assertions (≈2–3% Monte-Carlo error).
func testScale() Scale {
	return Scale{TargetMessages: 60_000, WarmupCycles: 800, Seed: 0xbeef}
}

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %.6g, want %.6g (tol %g)", msg, got, want, tol)
	}
}

func TestTableIShape(t *testing.T) {
	tbl, err := TableI(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 5 {
		t.Fatalf("columns: %d", len(tbl.Columns))
	}
	for _, col := range tbl.Columns {
		// Stage 1 matches the exact analysis.
		almost(t, col.SimW[0], col.AnalysisW, 0.05*(1+col.AnalysisW), col.Label+" stage-1 mean")
		almost(t, col.SimV[0], col.AnalysisV, 0.10*(1+col.AnalysisV), col.Label+" stage-1 var")
		// Deep stages match the w∞ estimate.
		last := col.Stages - 1
		almost(t, col.SimW[last], col.EstimateW, 0.06*(1+col.EstimateW), col.Label+" deep mean")
		// Variance estimates converge slowly at heavy load; the quick
		// test scale leaves sizable Monte-Carlo error there.
		almost(t, col.SimV[last], col.EstimateV, 0.30*(1+col.EstimateV), col.Label+" deep var")
		// Waits increase through the stages (m = 1).
		if col.SimW[last] <= col.SimW[0] {
			t.Fatalf("%s: no stage growth", col.Label)
		}
	}
	// Waits increase with p across columns.
	for i := 1; i < len(tbl.Columns); i++ {
		if tbl.Columns[i].SimW[7] <= tbl.Columns[i-1].SimW[7] {
			t.Fatal("deep-stage wait not increasing in p")
		}
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "ANALYSIS") || !strings.Contains(b.String(), "ESTIMATE") {
		t.Fatal("render missing paper rows")
	}
}

func TestTableIIShape(t *testing.T) {
	tbl, err := TableII(testScale())
	if err != nil {
		t.Fatal(err)
	}
	// At fixed p the first-stage wait rises with k: more inputs feed
	// each output port, so R''(1) = λ²(1-1/k) grows (eq. (6)).
	if !(tbl.Columns[0].AnalysisW < tbl.Columns[1].AnalysisW &&
		tbl.Columns[1].AnalysisW < tbl.Columns[2].AnalysisW) {
		t.Fatal("first-stage wait should rise with k at fixed p")
	}
	for _, col := range tbl.Columns {
		last := col.Stages - 1
		almost(t, col.SimW[last], col.EstimateW, 0.07*(1+col.EstimateW), col.Label+" deep mean")
	}
}

func TestTableIIIShape(t *testing.T) {
	tbl, err := TableIII(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for i, col := range tbl.Columns {
		m := []int{2, 4, 8, 16}[i]
		// Paper anchor: exact first stage = (m·0.5(m-1/2))/(2·0.5)…
		wantW1 := float64(m) * 0.5 * (float64(m) - 0.5) / (2 * 0.5) / float64(m) // = 0.5(m-0.5)
		almost(t, col.AnalysisW, wantW1, 1e-9, col.Label+" analysis anchor")
		// Later stages are *lighter* than stage 1 (spacing effect) and
		// match the scaled estimate.
		last := col.Stages - 1
		if col.SimW[last] >= col.SimW[0] {
			t.Fatalf("%s: deep stage %g not below first %g", col.Label, col.SimW[last], col.SimW[0])
		}
		almost(t, col.SimW[last], col.EstimateW, 0.08*(1+col.EstimateW), col.Label+" deep mean")
		almost(t, col.SimV[last], col.EstimateV, 0.15*(1+col.EstimateV), col.Label+" deep var")
	}
	// At fixed ρ, deep-stage wait doubles with m (linear growth).
	r := tbl.Columns[2].SimW[7] / tbl.Columns[1].SimW[7]
	almost(t, r, 2, 0.15, "linear growth in m")
	// Variance quadruples (quadratic growth).
	rv := tbl.Columns[2].SimV[7] / tbl.Columns[1].SimV[7]
	almost(t, rv, 4, 0.6, "quadratic variance growth in m")
}

func TestTableIVShape(t *testing.T) {
	tbl, err := TableIV(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tbl.Columns {
		almost(t, col.SimW[0], col.AnalysisW, 0.06*(1+col.AnalysisW), col.Label+" stage-1 vs exact")
		last := col.Stages - 1
		almost(t, col.SimW[last], col.EstimateW, 0.10*(1+col.EstimateW), col.Label+" deep vs estimate")
	}
	// Heavier mixtures (more size-8 messages) wait longer at fixed ρ.
	first := tbl.Columns[0] // g1 = 1 (all size 4)
	lastCol := tbl.Columns[len(tbl.Columns)-1]
	if lastCol.SimW[7] <= first.SimW[7] {
		t.Fatal("all-size-8 mixture should wait longer than all-size-4")
	}
}

func TestTableVShape(t *testing.T) {
	tbl, err := TableV(testScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range tbl.Columns {
		almost(t, col.SimW[0], col.AnalysisW, 0.05*(1+col.AnalysisW), col.Label+" stage-1 vs exclusive exact")
		last := col.Stages - 1
		almost(t, col.SimW[last], col.EstimateW, 0.06*(1+col.EstimateW), col.Label+" deep vs estimate")
	}
	// Deep-stage waits decrease with q.
	for i := 1; i < len(tbl.Columns); i++ {
		if tbl.Columns[i].SimW[7] >= tbl.Columns[i-1].SimW[7] {
			t.Fatal("deep-stage wait should fall with q")
		}
	}
}

func TestTableVIShape(t *testing.T) {
	tbl, err := TableVI(testScale())
	if err != nil {
		t.Fatal(err)
	}
	lags := tbl.LagCorrelations()
	// Paper Table VI: lag-1 ≈ 0.12, decaying geometrically with b≈0.4.
	almost(t, lags[0], 0.12, 0.025, "lag-1 correlation")
	for i := 1; i < 4; i++ {
		ratio := lags[i] / lags[i-1]
		if ratio < 0.2 || ratio > 0.65 {
			t.Fatalf("lag decay ratio %g at lag %d not geometric ≈ 0.4", ratio, i+1)
		}
	}
	almost(t, tbl.A, 0.12, 1e-12, "model a")
	almost(t, tbl.B, 0.4, 1e-12, "model b")
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "simulation") {
		t.Fatal("render missing simulation block")
	}
}

func TestTotalTablesShape(t *testing.T) {
	for _, tc := range []func(Scale) (*TotalTable, error){TableIX, TableX} {
		tbl, err := tc(testScale())
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 4 {
			t.Fatalf("rows: %d", len(tbl.Rows))
		}
		for _, r := range tbl.Rows {
			almost(t, r.SimW, r.PredW, 0.08*(1+r.PredW), tbl.Name+" total mean")
			almost(t, r.SimV, r.PredV, 0.15*(1+r.PredV), tbl.Name+" total variance")
		}
		// Totals grow with depth.
		for i := 1; i < 4; i++ {
			if tbl.Rows[i].SimW <= tbl.Rows[i-1].SimW {
				t.Fatal("total wait should grow with depth")
			}
		}
		var b strings.Builder
		if err := tbl.Render(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "stages") {
			t.Fatal("render missing rows")
		}
	}
}

func TestFigureShape(t *testing.T) {
	fig, err := Figure5(testScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Panels) != 4 {
		t.Fatalf("panels: %d", len(fig.Panels))
	}
	for _, p := range fig.Panels {
		// The gamma fit is the paper's headline: total-variation
		// distance stays small and the tails agree.
		if p.TV > 0.10 {
			t.Fatalf("n=%d: TV distance %g too large", p.NStages, p.TV)
		}
		if p.ModelTail > 0 {
			ratio := p.SimTail / p.ModelTail
			if ratio < 0.4 || ratio > 2.5 {
				t.Fatalf("n=%d: tail ratio %g", p.NStages, ratio)
			}
		}
		// Sim probabilities normalize.
		sum := 0.0
		for _, v := range p.Sim {
			sum += v
		}
		almost(t, sum, 1, 1e-9, "sim histogram mass")
	}
	// The gamma fit improves (or at least does not collapse) with depth:
	// CLT pushes the total toward smooth unimodality.
	if fig.Panels[3].TV > fig.Panels[0].TV*1.5 {
		t.Fatal("fit degraded sharply with depth")
	}
	var b strings.Builder
	if err := fig.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gamma") {
		t.Fatal("render missing gamma annotation")
	}
	var csv strings.Builder
	if err := fig.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "wait,sim,gamma") {
		t.Fatal("csv missing header")
	}
}

func TestScaleDerivation(t *testing.T) {
	sc := Quick()
	pa := sc.point("a", simnet.Config{K: 2, Stages: 4, P: 0.3})
	pb := sc.point("b", simnet.Config{K: 2, Stages: 4, P: 0.4})
	if sweep.SeedFor(pa, sc.Seed) == sweep.SeedFor(pb, sc.Seed) {
		t.Fatal("distinct configs must derive distinct seeds")
	}
	if c := sc.cyclesFor(256, 0.5, 1); c < 1000 {
		t.Fatalf("cycles %d too small for target", c)
	}
	if c := sc.cyclesFor(4096, 0.8, 1); c < 200 {
		t.Fatalf("cycle floor violated: %d", c)
	}
}

// TestScalePointSizedFromSimulatedRows: a wrapped network is sized from
// the rows simnet runs. For k=3, n=8 that is 3^7 = 2,187 rows, not the
// 4,096-row cap: sizing from the cap would measure about half the
// target message count.
func TestScalePointSizedFromSimulatedRows(t *testing.T) {
	sc := Full()
	pt := sc.point("k3n8", simnet.Config{K: 3, Stages: 8, P: 0.5})
	if want := sc.cyclesFor(2187, 0.5, 1); pt.Cfg.Cycles != want {
		t.Fatalf("k=3 n=8 point runs %d cycles, want %d (2,187 rows)", pt.Cfg.Cycles, want)
	}
}
