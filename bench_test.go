package banyan_test

import (
	"fmt"
	"io"
	"testing"

	"banyan"
	"banyan/internal/experiments"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/stats"
	"banyan/internal/sweep"
)

// Every table and figure of the paper's evaluation has a benchmark that
// regenerates it at the quick simulation scale and reports the key
// reproduced quantity as a custom metric; run with
//
//	go test -bench=. -benchmem
//
// and `go run ./cmd/tables` / `go run ./cmd/figures` for the full-scale
// renderings.

func benchScale() experiments.Scale {
	sc := experiments.Quick()
	sc.Seed = 0xbe27c4
	return sc
}

// --- Tables I–V: per-stage waiting-time tables ---

func benchStageTable(b *testing.B, f func(experiments.Scale) (*experiments.StageTable, error)) {
	b.ReportAllocs()
	var tbl *experiments.StageTable
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = f(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	last := tbl.Columns[len(tbl.Columns)-1]
	b.ReportMetric(last.SimW[last.Stages-1], "deep-w")
	b.ReportMetric(last.EstimateW, "est-w")
}

func BenchmarkTableI(b *testing.B)   { benchStageTable(b, experiments.TableI) }
func BenchmarkTableII(b *testing.B)  { benchStageTable(b, experiments.TableII) }
func BenchmarkTableIII(b *testing.B) { benchStageTable(b, experiments.TableIII) }
func BenchmarkTableIV(b *testing.B)  { benchStageTable(b, experiments.TableIV) }
func BenchmarkTableV(b *testing.B)   { benchStageTable(b, experiments.TableV) }

// --- Table VI: inter-stage correlations ---

func BenchmarkTableVI(b *testing.B) {
	b.ReportAllocs()
	var tbl *experiments.CorrTable
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = experiments.TableVI(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tbl.LagCorrelations()[0], "lag1-corr")
	b.ReportMetric(tbl.A, "model-a")
}

// --- Tables VII–XII: total-delay predictions ---

func benchTotalTable(b *testing.B, f func(experiments.Scale) (*experiments.TotalTable, error)) {
	b.ReportAllocs()
	var tbl *experiments.TotalTable
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = f(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := tbl.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	b.ReportMetric(last.SimW, "sim-w12")
	b.ReportMetric(last.PredW, "pred-w12")
}

func BenchmarkTableVII(b *testing.B)  { benchTotalTable(b, experiments.TableVII) }
func BenchmarkTableVIII(b *testing.B) { benchTotalTable(b, experiments.TableVIII) }
func BenchmarkTableIX(b *testing.B)   { benchTotalTable(b, experiments.TableIX) }
func BenchmarkTableX(b *testing.B)    { benchTotalTable(b, experiments.TableX) }
func BenchmarkTableXI(b *testing.B)   { benchTotalTable(b, experiments.TableXI) }
func BenchmarkTableXII(b *testing.B)  { benchTotalTable(b, experiments.TableXII) }

// --- Figures 3–8: total-wait distributions vs. the gamma approximation ---

func benchFigure(b *testing.B, f func(experiments.Scale) (*experiments.Figure, error)) {
	b.ReportAllocs()
	var fig *experiments.Figure
	for i := 0; i < b.N; i++ {
		var err error
		fig, err = f(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := fig.Render(io.Discard); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(fig.Panels[len(fig.Panels)-1].TV, "tv-n12")
}

func BenchmarkFigure3(b *testing.B) { benchFigure(b, experiments.Figure3) }
func BenchmarkFigure4(b *testing.B) { benchFigure(b, experiments.Figure4) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, experiments.Figure5) }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, experiments.Figure6) }
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// --- Ablations ---

// BenchmarkAblationCovarianceCorrection quantifies the Section V
// covariance correction: total-variance prediction with and without the
// geometric inter-stage covariance model (the DESIGN.md design-choice
// ablation).
func BenchmarkAblationCovarianceCorrection(b *testing.B) {
	pt := banyan.OperatingPoint{K: 2, M: 1, P: 0.5}
	var withCov, without float64
	for i := 0; i < b.N; i++ {
		nw, err := banyan.Predict(pt, 12)
		if err != nil {
			b.Fatal(err)
		}
		withCov = nw.TotalVarWait()
		without = nw.TotalVarWaitIndependent()
	}
	b.ReportMetric(withCov, "var-corrected")
	b.ReportMetric(without, "var-independent")
	b.ReportMetric(withCov/without, "correction-x")
}

// BenchmarkAblationHeavyTraffic probes the paper's conjectured
// heavy-traffic limit lim_{p→1} (1-p)·w∞(p), by simulation toward
// saturation and under the interpolation model.
func BenchmarkAblationHeavyTraffic(b *testing.B) {
	var ht *experiments.HeavyTraffic
	for i := 0; i < b.N; i++ {
		var err error
		ht, err = experiments.HeavyTrafficExperiment(benchScale(), 2, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := ht.Rows[len(ht.Rows)-1]
	b.ReportMetric(last.Probe, "sim-probe")
	b.ReportMetric(last.Model, "model-probe")
	md := stages.DefaultModel()
	b.ReportMetric(md.HeavyTrafficProbe(stages.Params{K: 2, M: 1, P: 0.9999}), "model-limit")
}

// BenchmarkAblationGammaVsConvolution compares the paper's single
// moment-matched gamma against this library's exact-stage-1 convolution
// predictor, by total-variation distance to a simulated 3-stage network
// (shallow networks are where the single gamma is weakest).
func BenchmarkAblationGammaVsConvolution(b *testing.B) {
	pt := banyan.OperatingPoint{K: 2, M: 1, P: 0.5}
	cfg := &banyan.SimConfig{K: 2, Stages: 3, P: 0.5, Cycles: 30000, Warmup: 3000, Seed: 77}
	var tvGamma, tvConv float64
	for i := 0; i < b.N; i++ {
		res, err := banyan.Simulate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nw, err := banyan.Predict(pt, 3)
		if err != nil {
			b.Fatal(err)
		}
		cells := res.TotalWait.Max() + 1
		gammaPMF, err := nw.PredictedPMF(cells)
		if err != nil {
			b.Fatal(err)
		}
		convPMF, err := nw.ConvolutionPMF(cells)
		if err != nil {
			b.Fatal(err)
		}
		simPMF, err := banyan.EmpiricalPMF(res.TotalWait.Counts())
		if err != nil {
			b.Fatal(err)
		}
		tvGamma = banyan.TotalVariation(simPMF, gammaPMF)
		tvConv = banyan.TotalVariation(simPMF, convPMF)
	}
	b.ReportMetric(tvGamma, "tv-gamma")
	b.ReportMetric(tvConv, "tv-convolution")
}

// BenchmarkAblationEngines compares the two simulator engines on one
// trace (cost of literal cycle-level fidelity vs. the fast engine).
func BenchmarkAblationEngines(b *testing.B) {
	cfg := &banyan.SimConfig{K: 2, Stages: 6, P: 0.5, Cycles: 4000, Warmup: 400, Seed: 5}
	tr, err := banyan.GenerateTrace(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := banyan.SimulateTrace(cfg, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("literal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := banyan.SimulateLiteral(cfg, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationExactStage2 solves the exact stage-2 Markov chain and
// reports exact-vs-interpolated stage-2 mean wait (the Section IV
// approximation's error, measured without Monte-Carlo noise).
func BenchmarkAblationExactStage2(b *testing.B) {
	var exact float64
	for i := 0; i < b.N; i++ {
		r, err := banyan.AnalyzeStage2(0.5, 32, 40, 6000, 1e-12)
		if err != nil {
			b.Fatal(err)
		}
		exact = r.MeanWait2
	}
	md := stages.DefaultModel()
	approx := md.StageMeanWait(stages.Params{K: 2, M: 1, P: 0.5}, 2)
	b.ReportMetric(exact, "exact-w2")
	b.ReportMetric(approx, "approx-w2")
}

// --- Micro-benchmarks for the core machinery ---

func BenchmarkExactAnalysis(b *testing.B) {
	arr, err := banyan.UniformTraffic(2, 2, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		an, err := banyan.Analyze(arr, banyan.UnitService())
		if err != nil {
			b.Fatal(err)
		}
		_ = an.MeanWait()
		_ = an.VarWait()
	}
}

func BenchmarkWaitDistribution512(b *testing.B) {
	arr, err := banyan.UniformTraffic(2, 2, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	an, err := banyan.Analyze(arr, banyan.UnitService())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := an.WaitDistribution(512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObservability is the bench guard for the telemetry stack: the
// same engine run with instrumentation attached in increasing layers.
// "bare" is the reference; "probe" (atomic counters) must stay within
// noise of it, and TestProbeZeroAllocPerCycle in internal/simnet pins
// that path to zero added allocs/cycle. The opt-in layers pay for what
// they record — "hists" (live log-bucketed waiting-time histograms, one
// atomic add per stage visit), "trace64" (1-in-64 span sampling, one
// span allocation per sampled message), and "full" (everything plus the
// exact drift histograms) — and this benchmark keeps those prices
// visible so regressions can't hide.
func BenchmarkObservability(b *testing.B) {
	base := simnet.Config{K: 2, Stages: 6, P: 0.5, Cycles: 10000, Warmup: 1000, Seed: 31}
	run := func(b *testing.B, instrument func(cfg *simnet.Config)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := base
			if instrument != nil {
				instrument(&cfg)
			}
			if _, err := simnet.Run(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })

	probe := obs.NewSimProbe()
	b.Run("probe", func(b *testing.B) {
		run(b, func(cfg *simnet.Config) { cfg.Probe = probe })
	})

	histProbe := obs.NewSimProbe()
	histProbe.Hists = obs.NewHistSet()
	b.Run("hists", func(b *testing.B) {
		run(b, func(cfg *simnet.Config) { cfg.Probe = histProbe })
	})

	traceProbe := obs.NewSimProbe()
	traceProbe.Tracer = obs.NewTracer(64, 1<<12)
	b.Run("trace64", func(b *testing.B) {
		run(b, func(cfg *simnet.Config) { cfg.Probe = traceProbe })
	})

	full := obs.NewSimProbe()
	full.Hists = obs.NewHistSet()
	full.Tracer = obs.NewTracer(64, 1<<12)
	b.Run("full", func(b *testing.B) {
		run(b, func(cfg *simnet.Config) {
			cfg.Probe = full
			cfg.WaitHists = make([]*stats.Hist, cfg.Stages)
			for i := range cfg.WaitHists {
				cfg.WaitHists[i] = &stats.Hist{}
			}
		})
	})
}

// BenchmarkObsExposition prices the scrape-path observability surfaces
// behind the live dashboard: rendering a populated registry as an
// OpenMetrics page (/metrics), one TSDB sampling tick (the /debug/ts
// cadence), and assembling the end-of-run ledger from a finished sweep.
// None of these run inside the simulation loop, but all three run
// concurrently with it, so their cost is gated against BENCH.json.
func BenchmarkObsExposition(b *testing.B) {
	// A registry populated like a mid-sweep scrape: a few dozen series
	// plus one live waiting-time histogram family.
	reg := obs.NewRegistry()
	for i := 0; i < 24; i++ {
		reg.Counter(fmt.Sprintf("bench.counter.%02d", i)).Add(int64(i) * 97)
	}
	for i := 0; i < 8; i++ {
		reg.Gauge(fmt.Sprintf("bench.gauge.%02d", i)).Set(int64(i))
	}
	h := &obs.Hist{}
	for v := int64(0); v < 4096; v++ {
		h.Record(v % 257)
	}
	fams := []obs.HistFamily{{
		Name: "wait_cycles", Help: "waiting time in cycles",
		Labels: map[string]string{"stage": "total"},
		Hist:   h,
	}}

	b.Run("openmetrics", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := obs.WriteOpenMetrics(io.Discard, reg, fams); err != nil {
				b.Fatal(err)
			}
		}
	})

	tsdb := obs.NewTSDB(reg, 120)
	b.Run("tsdb-sample", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tsdb.Sample()
		}
	})

	b.Run("ledger-build", func(b *testing.B) {
		pts := make([]sweep.Point, 12)
		for i := range pts {
			pts[i] = sweep.Point{
				Label: fmt.Sprintf("pt-%02d", i),
				Cfg: simnet.Config{
					K: 2, Stages: 4, P: 0.2 + 0.05*float64(i),
					Cycles: 400, Warmup: 50, Seed: 1,
				},
			}
		}
		r := &sweep.Runner{RootSeed: 31, Ledger: sweep.NewLedgerCollector()}
		if _, err := r.Run(pts); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			led := r.BuildLedger()
			if !led.Reconciled {
				b.Fatalf("ledger does not reconcile: %s", led.Note)
			}
		}
	})
}

func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := &simnet.Config{K: 2, Stages: 6, P: 0.5, Cycles: 10000, Warmup: 1000, Seed: 31}
	b.ReportAllocs()
	var msgs int64
	for i := 0; i < b.N; i++ {
		res, err := simnet.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Messages
	}
	b.ReportMetric(float64(msgs*int64(cfg.Stages)*int64(b.N))/b.Elapsed().Seconds(), "msg-stages/s")
}
