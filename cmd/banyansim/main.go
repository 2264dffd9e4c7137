// Command banyansim simulates one clocked buffered banyan network and
// compares the measured waiting times against the paper's analytic
// predictions: exact first-stage formulas, later-stage estimates, the
// total-delay prediction and the gamma approximation of the total wait.
//
// Usage:
//
//	banyansim -k 2 -n 6 -p 0.5 [-m 4 | -geom 0.25] [-b 2] [-q 0.1]
//	          [-cycles 20000] [-warmup 2000] [-seed 1] [-replications 8]
//	          [-engine fast|literal|graph] [-buffers 4] [-hist]
//	          [-topology omega|butterfly|flip] [-hotspot 0.2]
//	          [-buffer-map 4,4,2,2] [-fail-link 2:3] [-fail-policy reroute]
//	          [-switch-stats] [-sat-depth 32]
//	          [-sim-stats] [-debug-addr :6060] [-debug-hold]
//	          [-trace-out spans.jsonl] [-trace-sample 64]
//	          [-drift-check] [-drift-threshold 0.15]
//
// The run is a one-point sweep through sweep.Runner, configured by the
// same sweep.RunOptions flags as the other binaries (-timeout,
// -max-retries, -vr, -ledger-out, …). -seed is the sweep's root
// seed, from which the runner derives the run's seeds. -replications N
// runs N replications on any engine and reports Student-t confidence
// intervals across them.
//
// -engine graph selects the topology-true engine: messages advance
// switch by switch through the wiring chosen by -topology (omega when
// unset). -hotspot h sends a fraction h of arrivals to the shared output
// 0 (tree saturation), -buffer-map caps each stage's per-port queue
// depth (head-of-line blocking), and -fail-link with -fail-policy drops
// or reroutes traffic around a failed switch output. -switch-stats
// prints per-switch saturation verdicts (backlog ≥ -sat-depth, or
// blocked at least once). The stage-model engines reject the graph-only
// flags.
//
// The exact stage-1 row and the predicted total wait are printed only
// for runs Theorem 1 describes (no finite buffers, failed links or
// hot-module traffic); the prediction also needs b = 1 and constant
// service.
//
// -sim-stats prints an engine probe's summary to stderr; -debug-addr
// serves metrics, live waiting-time histograms (/debug/hist, with the
// per-switch verdicts of graph runs), trace spans and pprof over HTTP
// while the simulation runs, and -debug-hold keeps the server up after
// the run until interrupted. -trace-out dumps sampled per-message flight
// records as JSON lines; -drift-check tests the per-stage waiting times,
// pooled over the replications, against the analytic model. None of
// these change any simulated number.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"banyan"
	"banyan/internal/sweep"
	"banyan/internal/textplot"
)

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
	seed    = flag.Uint64("seed", 1, "root random seed of the one-point sweep")
	engine  = flag.String("engine", "fast", "engine: fast, literal or graph")
	buffers = flag.Int("buffers", 0, "finite buffer capacity per queue (literal engine; 0 = infinite; the graph engine uses -buffer-map)")

	topo        = flag.String("topology", "", "graph engine: inter-stage wiring — omega, butterfly or flip (empty = omega)")
	hotspot     = flag.Float64("hotspot", 0, "fraction of arrivals addressed to the shared hot output 0 (tree saturation; any engine)")
	bufferMap   = flag.String("buffer-map", "", "graph engine: comma-separated per-stage buffer depths, e.g. 4,4,2,2 (0 = infinite)")
	failLink    = flag.String("fail-link", "", "graph engine: failed switch-output links as stage:row[,stage:row,…], e.g. 2:3")
	failPolicy  = flag.String("fail-policy", "", "graph engine: fate of a message routed onto a failed link — drop or reroute")
	switchStats = flag.Bool("switch-stats", false, "graph engine: track per-switch backlog/blocked telemetry and print saturation verdicts")
	satDepth    = flag.Int("sat-depth", 0, "graph engine: backlog high-water mark at which a switch is reported saturated (0 = 32)")
	hist        = flag.Bool("hist", false, "print the total-wait histogram with the gamma overlay")
	reps        = flag.Int("replications", 0, "run N independent replications (any engine) and report confidence intervals")
	debugHold   = flag.Bool("debug-hold", false, "with -debug-addr: keep the debug server up after the run until SIGINT/SIGTERM")

	// opts holds the flags every sweep-running binary shares
	// (-sim-stats, -debug-addr, -trace-out, -drift-check, …).
	opts sweep.RunOptions
)

// engines maps the -engine values to the simulators they select.
var engines = map[string]sweep.Engine{
	"fast":    sweep.Fast,
	"literal": sweep.Literal,
	"graph":   sweep.Graph,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("banyansim: ")
	opts.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run simulates the one point the flags describe and prints the report.
func run() error {
	svc, err := banyan.ConstService(*m)
	if *geom > 0 {
		svc, err = banyan.GeomService(*geom, 1024)
	}
	if err != nil {
		return err
	}
	eng, ok := engines[*engine]
	if !ok {
		return fmt.Errorf("unknown engine %q", *engine)
	}
	cfg := banyan.SimConfig{
		K: *k, Stages: *n, P: *p, Bulk: *b, Q: *q, Service: svc,
		Cycles: *cycles, Warmup: *warmup, BufferCap: *buffers,
		Topology: banyan.TopologyKind(*topo), HotModule: *hotspot,
		FailPolicy: *failPolicy, TrackSwitches: *switchStats, SatDepth: *satDepth,
	}
	// The runner validates the config before the engine sees it, so the
	// graph engine's omega default is spelled out here.
	if eng == sweep.Graph && cfg.Topology == "" {
		cfg.Topology = banyan.TopoOmega
	}
	if *bufferMap != "" {
		if cfg.StageBuffers, err = parseBufferMap(*bufferMap); err != nil {
			return err
		}
	}
	if *failLink != "" {
		if cfg.FailLinks, err = parseFailLinks(*failLink); err != nil {
			return err
		}
	}

	runner := &sweep.Runner{RootSeed: *seed}
	ctx, cleanup, err := opts.Apply(runner)
	if err != nil {
		return err
	}
	defer cleanup()
	prs, err := runner.RunCtx(ctx, []sweep.Point{{Label: "banyansim", Cfg: cfg, Engine: eng, Reps: *reps}})
	if err != nil {
		return err
	}
	pr := prs[0]

	if *reps > 0 {
		err = printReplications(pr)
	} else {
		err = printRun(pr)
	}
	if err != nil {
		return err
	}
	if *debugHold && opts.DebugAddr != "" {
		// The deferred cleanup closes the server; until a signal cancels
		// ctx the populated endpoints stay scrapeable (the CI smoke test
		// relies on it).
		fmt.Fprintf(os.Stderr, "debug: run complete; holding until SIGINT/SIGTERM\n")
		<-ctx.Done()
	}
	return nil
}

// printReplications prints the across-replication estimates with their
// Student-t 95% half-widths, then the drift check.
func printReplications(pr *sweep.PointResult) error {
	rep := pr.Agg
	fmt.Printf("%d replications of %d cycles (k=%d, n=%d, p=%g):\n", rep.Replications(), *cycles, *k, *n, *p)
	fmt.Printf("total wait mean: %.4f ± %.4f (95%%)\n", rep.MeanTotalWait(), rep.MeanTotalWaitCI())
	fmt.Printf("total wait var:  %.4f ± %.4f (95%%)\n", rep.VarTotalWait(), rep.VarTotalWaitCI())
	for s := 1; s <= *n; s++ {
		mw, hw := rep.StageMeanWait(s)
		fmt.Printf("stage %d wait:    %.4f ± %.4f\n", s, mw, hw)
	}
	return printDrift(pr)
}

// printRun prints the single run's per-stage table (with the exact
// stage-1 row when Theorem 1 describes the run), the graph engine's
// telemetry, the drift check, and the total wait against its prediction.
func printRun(pr *sweep.PointResult) error {
	res, cfg := pr.Result(), &pr.Point.Cfg
	fmt.Printf("network: %d stages of %d×%d switches, %d rows/stage (wrapped=%v)\n",
		*n, *k, *k, res.Rows, res.Wrapped)
	fmt.Printf("traffic: p=%g b=%d q=%g service=%s → ρ=%.4f\n", *p, *b, *q, cfg.Service, cfg.Utilization())
	fmt.Printf("measured messages: %d (offered %d, dropped %d)\n\n", res.Messages, res.Offered, res.Dropped)

	header := []string{"stage", "sim w", "sim v"}
	var rows [][]string
	for i := range res.StageWait {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.4f", res.StageWait[i].Mean()),
			fmt.Sprintf("%.4f", res.StageWait[i].Variance()),
		})
	}
	arr, svc, lawErr := cfg.Stage1Law()
	if lawErr == nil {
		if an, err := banyan.Analyze(arr, svc); err == nil {
			rows = append(rows, []string{"exact-1", fmt.Sprintf("%.4f", an.MeanWait()), fmt.Sprintf("%.4f", an.VarWait())})
		}
	}
	if err := textplot.Table(os.Stdout, "per-stage waiting times", header, rows); err != nil {
		return err
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
			return err
		}
	}
	if err := printDrift(pr); err != nil {
		return err
	}

	// Total-delay prediction: defined where Theorem 1 describes stage 1,
	// for b=1 constant-size operating points.
	if lawErr == nil && *b == 1 && *geom == 0 {
		if nw, err := banyan.Predict(banyan.OperatingPoint{K: *k, M: *m, P: *p, Q: *q}, *n); err == nil {
			fmt.Printf("\ntotal wait: sim mean %.4f var %.4f | predicted mean %.4f var %.4f\n",
				res.MeanTotalWait(), res.VarTotalWait(), nw.TotalMeanWait(), nw.TotalVarWait())
			if *hist {
				if g, err := nw.GammaApprox(); err == nil {
					cells := res.TotalWait.Max() + 1
					sim := make([]float64, cells)
					for j := range sim {
						sim[j] = res.TotalWait.Prob(j)
					}
					fmt.Println()
					return textplot.Histogram(os.Stdout,
						"total waiting time: simulation (bars) vs gamma approximation (·)",
						sim, g.Discretize(cells).Probs(), 56, 1e-3)
				}
			}
			return nil
		}
	}
	fmt.Printf("\ntotal wait: sim mean %.4f var %.4f\n", res.MeanTotalWait(), res.VarTotalWait())
	return nil
}

// printDrift prints the drift monitor's verdicts on the point, when
// -drift-check is set: the per-stage table, then on graph runs a count
// of the per-switch verdicts and a line for each drifted switch.
func printDrift(pr *sweep.PointResult) error {
	if !opts.DriftCheck {
		return nil
	}
	fmt.Println()
	rep := pr.Drift
	switch {
	case rep == nil:
		fmt.Println("drift check skipped: the run was truncated or its analytic model failed to build")
		return nil
	case rep.Skipped != "":
		fmt.Printf("drift check skipped: %s\n", rep.Skipped)
		return nil
	}
	dh := []string{"stage", "n", "KS", "trigger", "drift"}
	var drows [][]string
	var switches []sweep.Verdict
	stageDrift := false
	for _, v := range rep.Verdicts {
		if v.Switch != 0 {
			switches = append(switches, v)
			continue
		}
		stageDrift = stageDrift || v.Drifted
		drows = append(drows, []string{
			fmt.Sprintf("%d", v.Stage),
			fmt.Sprintf("%d", v.N),
			fmt.Sprintf("%.5f", v.KS),
			fmt.Sprintf("%.5f", v.Trigger),
			fmt.Sprintf("%v", v.Drifted),
		})
	}
	if err := textplot.Table(os.Stdout, "drift check vs analytic model", dh, drows); err != nil {
		return err
	}
	if stageDrift {
		stage, ks := rep.MaxKS()
		fmt.Printf("DRIFT: stage %d diverges from the analytic model (KS %.5f)\n", stage, ks)
	}
	if len(switches) == 0 {
		return nil
	}
	drifted := 0
	for _, v := range switches {
		if v.Drifted {
			drifted++
			fmt.Printf("DRIFT: stage %d switch %d diverges from the analytic model (KS %.5f)\n", v.Stage, v.Switch, v.KS)
		}
	}
	fmt.Printf("per-switch drift check: %d switches checked, %d drifted\n", len(switches), drifted)
	return nil
}

// parseBufferMap parses the -buffer-map value: comma-separated per-stage
// queue depths, e.g. "4,4,2,2" (0 = infinite).
func parseBufferMap(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, len(parts))
	for i, part := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-buffer-map entry %q: want an integer depth", part)
		}
		out[i] = v
	}
	return out, nil
}

// parseFailLinks parses the -fail-link value: comma-separated stage:row
// pairs naming failed switch-output links, e.g. "2:3,1:0".
func parseFailLinks(s string) ([]banyan.LinkFail, error) {
	var out []banyan.LinkFail
	for _, part := range strings.Split(s, ",") {
		var f banyan.LinkFail
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &f.Stage, &f.Row); err != nil {
			return nil, fmt.Errorf("-fail-link entry %q: want stage:row", part)
		}
		out = append(out, f)
	}
	return out, nil
}
