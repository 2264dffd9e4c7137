// Command banyansim simulates one clocked buffered banyan network and
// compares the measured waiting times against the paper's analytic
// predictions: exact first-stage formulas, later-stage estimates, the
// total-delay prediction and the gamma approximation of the total wait.
//
// Usage:
//
//	banyansim -k 2 -n 6 -p 0.5 [-m 4 | -geom 0.25] [-b 2] [-q 0.1]
//	          [-cycles 20000] [-warmup 2000] [-seed 1]
//	          [-engine fast|literal|graph] [-buffers 4] [-hist]
//	          [-topology omega|butterfly|flip] [-hotspot 0.2]
//	          [-buffer-map 4,4,2,2] [-fail-link 2:3] [-fail-policy reroute]
//	          [-switch-stats] [-sat-depth 32]
//	          [-sim-stats] [-debug-addr :6060] [-debug-hold]
//	          [-trace-out spans.jsonl] [-trace-sample 64]
//	          [-drift-check] [-drift-threshold 0.15]
//
// -engine graph selects the topology-true engine: messages advance
// switch by switch through the explicit wiring chosen by -topology
// (omega when unset), enabling the scenarios the stage models can only
// approximate — -hotspot h sends a fraction h of arrivals to the shared
// output 0 (tree saturation), -buffer-map caps each stage's per-port
// queue depth (head-of-line blocking and backpressure), and -fail-link
// with -fail-policy drops or deterministically reroutes traffic around a
// failed switch output. -switch-stats tracks per-switch backlog
// high-water marks and blocked cycles and prints saturation verdicts
// (backlog ≥ -sat-depth, or blocked at least once); with -debug-addr the
// same telemetry appears as the "switches" section of /debug/hist. The
// graph-only flags are rejected when a stage-model engine is selected,
// since those engines simulate one representative queue per stage.
//
// -sim-stats attaches an engine probe (cycles/sec, free-list hit rate,
// per-stage backlog high-water marks) and prints its summary to stderr;
// -debug-addr serves the probe's metrics, live waiting-time histograms
// (/debug/hist), sampled trace spans (/debug/trace) and pprof over HTTP
// while the simulation runs, and -debug-hold keeps that server up after
// the run until interrupted. -trace-out samples per-message flight
// records and dumps them as JSON lines; -drift-check tests the measured
// per-stage waiting times against the paper's analytic model. None of
// these change any simulated number.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"banyan"
	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/sweep"
	"banyan/internal/textplot"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("banyansim: ")
	var (
		k       = flag.Int("k", 2, "switch radix (k×k switches)")
		n       = flag.Int("n", 6, "number of stages")
		p       = flag.Float64("p", 0.5, "per-input arrival probability per cycle")
		m       = flag.Int("m", 1, "constant message size in packets")
		geom    = flag.Float64("geom", 0, "geometric service parameter μ (overrides -m)")
		b       = flag.Int("b", 1, "bulk arrival batch size")
		q       = flag.Float64("q", 0, "favorite-output probability")
		cycles  = flag.Int("cycles", 20000, "measured cycles")
		warmup  = flag.Int("warmup", 2000, "warmup cycles")
		seed    = flag.Uint64("seed", 1, "random seed")
		engine  = flag.String("engine", "fast", "engine: fast, literal or graph")
		buffers = flag.Int("buffers", 0, "finite buffer capacity per queue (literal engine; 0 = infinite; the graph engine uses -buffer-map)")

		topo        = flag.String("topology", "", "graph engine: inter-stage wiring — omega, butterfly or flip (empty = omega)")
		hotspot     = flag.Float64("hotspot", 0, "graph engine: fraction of arrivals addressed to the shared hot output 0 (tree saturation)")
		bufferMap   = flag.String("buffer-map", "", "graph engine: comma-separated per-stage buffer depths, e.g. 4,4,2,2 (0 = infinite)")
		failLink    = flag.String("fail-link", "", "graph engine: failed switch-output links as stage:row[,stage:row,…], e.g. 2:3")
		failPolicy  = flag.String("fail-policy", "", "graph engine: fate of a message routed onto a failed link — drop or reroute")
		switchStats = flag.Bool("switch-stats", false, "graph engine: track per-switch backlog/blocked telemetry and print saturation verdicts")
		satDepth    = flag.Int("sat-depth", 0, "graph engine: backlog high-water mark at which a switch is reported saturated (0 = 32)")
		hist        = flag.Bool("hist", false, "print the total-wait histogram with the gamma overlay")
		reps        = flag.Int("replications", 0, "run N independent replications (fast engine) and report confidence intervals")

		simStats  = flag.Bool("sim-stats", false, "collect simulator-internal statistics and print a summary at exit")
		debugAddr = flag.String("debug-addr", "", "serve live /metrics, /debug/hist, /debug/ts, /debug/trace and /debug/pprof on this address while the simulation runs")
		debugHold = flag.Bool("debug-hold", false, "with -debug-addr: keep the debug server up after the run until SIGINT/SIGTERM")

		traceOut    = flag.String("trace-out", "", "sample per-message trace spans and dump them as JSON lines to this file at exit")
		traceSample = flag.Int("trace-sample", 64, "with -trace-out: trace one in N measured messages")

		driftCheck     = flag.Bool("drift-check", false, "test the measured per-stage waiting times against the analytic model")
		driftThreshold = flag.Float64("drift-threshold", 0, "KS-distance trigger floor for -drift-check (0 = default)")
	)
	flag.Parse()

	var svc banyan.Service
	var err error
	switch {
	case *geom > 0:
		svc, err = banyan.GeomService(*geom, 1024)
	default:
		svc, err = banyan.ConstService(*m)
	}
	if err != nil {
		log.Fatal(err)
	}

	cfg := &banyan.SimConfig{
		K: *k, Stages: *n, P: *p, Bulk: *b, Q: *q, Service: svc,
		Cycles: *cycles, Warmup: *warmup, Seed: *seed, BufferCap: *buffers,
	}

	// The graph-only knobs are meaningless on the stage-model engines,
	// which simulate one representative queue per stage; reject them all
	// at once, naming each offending flag (sweep.Validate style).
	if *engine != "graph" {
		var gerrs []error
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-topology", *topo != ""},
			{"-hotspot", *hotspot != 0},
			{"-buffer-map", *bufferMap != ""},
			{"-fail-link", *failLink != ""},
			{"-fail-policy", *failPolicy != ""},
			{"-switch-stats", *switchStats},
			{"-sat-depth", *satDepth != 0},
		} {
			if f.set {
				gerrs = append(gerrs, fmt.Errorf("%s requires -engine graph; the %s engine models one representative queue per stage", f.name, *engine))
			}
		}
		if err := errors.Join(gerrs...); err != nil {
			log.Fatal(err)
		}
	} else {
		if *buffers > 0 {
			log.Fatal("-buffers is the literal engine's knob; use -buffer-map with -engine graph")
		}
		if *topo == "" {
			*topo = string(banyan.TopoOmega)
		}
		cfg.Topology = banyan.TopologyKind(*topo)
		cfg.HotModule = *hotspot
		cfg.FailPolicy = *failPolicy
		cfg.TrackSwitches = *switchStats
		cfg.SatDepth = *satDepth
		if *bufferMap != "" {
			caps, err := parseBufferMap(*bufferMap)
			if err != nil {
				log.Fatal(err)
			}
			cfg.StageBuffers = caps
		}
		if *failLink != "" {
			fails, err := parseFailLinks(*failLink)
			if err != nil {
				log.Fatal(err)
			}
			cfg.FailLinks = fails
		}
	}

	// Observability: the probe rides on the config (excluded from result
	// statistics and seeding), the debug server exposes it live.
	var probe *obs.SimProbe
	if *simStats || *debugAddr != "" || *traceOut != "" {
		probe = obs.NewSimProbe()
		cfg.Probe = probe
	}
	if *simStats {
		defer probe.WriteSummary(os.Stderr)
	}
	if *traceOut != "" {
		probe.Tracer = obs.NewTracer(*traceSample, 1<<16)
		defer func() {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			if err := probe.Tracer.WriteJSONL(f); err != nil {
				log.Print(err)
			}
		}()
	}
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		probe.Register(reg)
		probe.Hists = obs.NewHistSet()
		probe.Hists.Register(reg, "wait")
		obs.RegisterRuntimeMetrics(reg)
		tsdb := obs.NewTSDB(reg, 120)
		tsdb.Start(time.Second)
		defer tsdb.Stop()
		srv, err := obs.StartDebugServer(*debugAddr, obs.DebugOptions{
			Registry: reg,
			Hists:    probe.Hists,
			Tracer:   probe.Tracer,
			TSDB:     tsdb,
			Probe:    probe,
			SatDepth: *satDepth,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug: serving /metrics, /debug/hist, /debug/ts, /debug/trace and /debug/pprof on http://%s\n", srv.Addr())
		if *debugHold {
			// Runs before srv.Close (LIFO): the populated endpoints stay
			// scrapeable after the run — the CI smoke test relies on it.
			defer func() {
				fmt.Fprintf(os.Stderr, "debug: run complete; holding until SIGINT/SIGTERM\n")
				ch := make(chan os.Signal, 1)
				signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
				<-ch
			}()
		}
	}
	if *driftCheck {
		if *reps > 0 {
			log.Fatal("-drift-check works on a single run, not with -replications")
		}
		cfg.WaitHists = make([]*stats.Hist, *n)
		for i := range cfg.WaitHists {
			cfg.WaitHists[i] = &stats.Hist{}
		}
	}

	if *reps > 0 {
		if *engine != "fast" || *buffers > 0 {
			log.Fatal("-replications works with the fast engine and infinite buffers")
		}
		rep, err := banyan.SimulateReplications(cfg, *reps, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d replications of %d cycles (k=%d, n=%d, p=%g):\n", *reps, *cycles, *k, *n, *p)
		fmt.Printf("total wait mean: %.4f ± %.4f (95%%)\n", rep.MeanTotalWait(), rep.MeanTotalWaitCI())
		fmt.Printf("total wait var:  %.4f ± %.4f (95%%)\n", rep.VarTotalWait(), rep.VarTotalWaitCI())
		for s := 1; s <= *n; s++ {
			mw, hw := rep.StageMeanWait(s)
			fmt.Printf("stage %d wait:    %.4f ± %.4f\n", s, mw, hw)
		}
		return
	}

	tr, err := banyan.GenerateTrace(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var res *banyan.SimResult
	switch *engine {
	case "fast":
		res, err = banyan.SimulateTrace(cfg, tr)
	case "literal":
		res, err = banyan.SimulateLiteral(cfg, tr)
	case "graph":
		res, err = banyan.SimulateGraph(cfg, tr)
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: %d stages of %d×%d switches, %d rows/stage (wrapped=%v)\n",
		*n, *k, *k, res.Rows, res.Wrapped)
	fmt.Printf("traffic: p=%g b=%d q=%g service=%s → ρ=%.4f\n", *p, *b, *q, svc, float64(*b)**p*svc.Mean())
	fmt.Printf("measured messages: %d (offered %d, dropped %d)\n\n", res.Messages, res.Offered, res.Dropped)

	// Per-stage table with first-stage exact analysis.
	var arr banyan.Arrivals
	if *q > 0 {
		arr, err = banyan.HotSpotTraffic(*k, *p, *q, *b)
	} else if *hotspot > 0 {
		arr, err = banyan.HotModuleTraffic(*k, *p, *hotspot, *b)
	} else if *b > 1 {
		arr, err = banyan.BulkTraffic(*k, *k, *p, *b)
	} else {
		arr, err = banyan.UniformTraffic(*k, *k, *p)
	}
	if err != nil {
		log.Fatal(err)
	}
	header := []string{"stage", "sim w", "sim v"}
	var rows [][]string
	for i := range res.StageWait {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.4f", res.StageWait[i].Mean()),
			fmt.Sprintf("%.4f", res.StageWait[i].Variance()),
		})
	}
	if an, aerr := banyan.Analyze(arr, svc); aerr == nil {
		rows = append(rows, []string{"exact-1", fmt.Sprintf("%.4f", an.MeanWait()), fmt.Sprintf("%.4f", an.VarWait())})
	}
	if err := textplot.Table(os.Stdout, "per-stage waiting times", header, rows); err != nil {
		log.Fatal(err)
	}

	if res.BlockedCycles > 0 || res.Deflected > 0 || res.Misrouted > 0 {
		fmt.Printf("\ngraph: blocked cycles %d, deflected %d, misrouted %d\n",
			res.BlockedCycles, res.Deflected, res.Misrouted)
	}
	if len(res.SwitchSat) > 0 {
		sh := []string{"stage", "switch", "high water", "blocked", "saturated"}
		var srows [][]string
		for _, sw := range res.SwitchSat {
			srows = append(srows, []string{
				fmt.Sprintf("%d", sw.Stage),
				fmt.Sprintf("%d", sw.Switch),
				fmt.Sprintf("%d", sw.HighWater),
				fmt.Sprintf("%d", sw.Blocked),
				fmt.Sprintf("%v", sw.Saturated),
			})
		}
		fmt.Println()
		if err := textplot.Table(os.Stdout, "per-switch saturation verdicts", sh, srows); err != nil {
			log.Fatal(err)
		}
	}

	if *driftCheck {
		mon := &sweep.DriftMonitor{Threshold: *driftThreshold}
		rep, derr := mon.Check(cfg, cfg.WaitHists)
		if derr != nil {
			log.Fatal(derr)
		}
		fmt.Println()
		if rep.Skipped != "" {
			fmt.Printf("drift check skipped: %s\n", rep.Skipped)
		} else {
			dh := []string{"stage", "n", "KS", "trigger", "drift"}
			var drows [][]string
			for _, sd := range rep.Verdicts {
				drows = append(drows, []string{
					fmt.Sprintf("%d", sd.Stage),
					fmt.Sprintf("%d", sd.N),
					fmt.Sprintf("%.5f", sd.KS),
					fmt.Sprintf("%.5f", sd.Trigger),
					fmt.Sprintf("%v", sd.Drifted),
				})
			}
			if err := textplot.Table(os.Stdout, "drift check vs analytic model", dh, drows); err != nil {
				log.Fatal(err)
			}
			if rep.Drifted {
				stage, ks := rep.MaxKS()
				fmt.Printf("DRIFT: stage %d diverges from the analytic model (KS %.5f)\n", stage, ks)
			}
		}
	}

	// Total-delay prediction (defined for b=1 constant-size operating points).
	if *b == 1 && *geom == 0 {
		if nw, perr := banyan.Predict(banyan.OperatingPoint{K: *k, M: *m, P: *p, Q: *q}, *n); perr == nil {
			fmt.Printf("\ntotal wait: sim mean %.4f var %.4f | predicted mean %.4f var %.4f\n",
				res.MeanTotalWait(), res.VarTotalWait(), nw.TotalMeanWait(), nw.TotalVarWait())
			if *hist {
				if g, gerr := nw.GammaApprox(); gerr == nil {
					cells := res.TotalWait.Max() + 1
					sim := make([]float64, cells)
					for j := range sim {
						sim[j] = res.TotalWait.Prob(j)
					}
					model := g.Discretize(cells).Probs()
					fmt.Println()
					if err := textplot.Histogram(os.Stdout,
						"total waiting time: simulation (bars) vs gamma approximation (·)",
						sim, model, 56, 1e-3); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	} else {
		fmt.Printf("\ntotal wait: sim mean %.4f var %.4f\n", res.MeanTotalWait(), res.VarTotalWait())
	}
}

// parseBufferMap parses the -buffer-map value: comma-separated per-stage
// queue depths, e.g. "4,4,2,2" (0 = infinite).
func parseBufferMap(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-buffer-map entry %q: want an integer depth", p)
		}
		out[i] = v
	}
	return out, nil
}

// parseFailLinks parses the -fail-link value: comma-separated stage:row
// pairs naming failed switch-output links, e.g. "2:3,1:0".
func parseFailLinks(s string) ([]banyan.LinkFail, error) {
	var out []banyan.LinkFail
	for _, p := range strings.Split(s, ",") {
		var f banyan.LinkFail
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d:%d", &f.Stage, &f.Row); err != nil {
			return nil, fmt.Errorf("-fail-link entry %q: want stage:row", p)
		}
		out = append(out, f)
	}
	return out, nil
}
