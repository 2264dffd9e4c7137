// Command bench is the repository's benchmark. It runs a workload — a
// fixed batch of simulation points derived from --seed — through the
// public entry points of internal/experiments, internal/sweep and
// internal/simnet for --seconds, checks every result, and prints the
// end-to-end metrics by name with their units. With --trace 1 it repeats
// the passes with spans around its calls into each layer, runs a
// per-layer ladder that calls the engines directly, and prints the
// per-layer metrics and a layer-separation table instead. The last line
// of standard output is one JSON object with the keys correct, attempted,
// failed and metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh --workload deep_heavy --seed 1986 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1986
//
// README.md lists the workloads, the metrics and the comparison
// procedure.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceOut string
	tiny     bool // the tests' smoke size
}

// metric is one named, measured value.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

// report is the outcome of one workload.
type report struct {
	workload string
	metrics  []metric // end-to-end, or per-layer under --trace 1
	chk      *checker
	passes   int
	// throughput is message-stages simulated per second of untraced pass
	// wall time.
	throughput float64
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: bench compare PARENT.jsonl CHANGE.jsonl")
			return 2
		}
		if err := compare("BENCHMARK.json", args[1], args[2], stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", digestSeed, "seed every workload input is derived from")
	seconds := fs.Int("seconds", 20, "how long each workload runs timed passes")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	traceOut := fs.String("trace-out", "", "write the traced run's spans to this file (implies --trace 1; default .bench_build/spans-<workload>.json)")
	update := fs.String("update-digests", "", "run every workload once at full size and write its per-point digests to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	names := workloadNames
	if *wl != "all" {
		if !slices.Contains(workloadNames, *wl) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v or all)\n", *wl, workloadNames)
			return 2
		}
		names = []string{*wl}
	}
	if *update != "" {
		if err := updateDigests(*update, names, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1 || *traceOut != "", traceOut: *traceOut}

	// Every run must end well inside three minutes; a stuck simulation
	// fails its points through the context instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	var reps []*report
	for _, name := range names {
		rep, err := runWorkload(ctx, name, o, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		reps = append(reps, rep)
	}
	b, err := resultJSON(reps, len(names) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// resultJSON renders the final line. With several workloads each metric
// name is prefixed by its workload.
func resultJSON(reps []*report, prefix bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range reps {
		out.Attempted += r.chk.attempted
		out.Failed += r.chk.failed
		for _, m := range r.metrics {
			name := m.name
			if prefix {
				name = r.workload + "." + name
			}
			out.Metrics[name] = value{m.value, m.unit}
		}
	}
	out.Correct = out.Failed == 0
	return json.Marshal(out)
}

// repeats returns how many times a run repeats its workload's set-up (the
// median is setup_s) and the fewest timed passes of each kind it makes,
// however long they take. The smoke size keeps two of each, enough for a
// median and for the pass-to-pass digest check.
func (w *workload) repeats() (setups, minPasses int) {
	if w.tiny {
		return 2, 2
	}
	return 9, 3
}

// runWorkload sets a workload up, runs its timed passes for o.seconds,
// checks the results and prints its metrics.
func runWorkload(ctx context.Context, name string, o options, stdout io.Writer) (*report, error) {
	w, err := newWorkload(name, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(name, o.seed, o.tiny)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	pr, err := newProber(w.par)
	if err != nil {
		return nil, err
	}
	defer pr.close()
	var setups []float64
	nSetups, _ := w.repeats()
	for i := 0; i < nSetups; i++ {
		runtime.GC() // a collection owed by earlier work is not set-up time
		t0 := time.Now()
		if err := w.setUp(tr, fmt.Sprintf("setup-%d", i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	ps, err := runPasses(ctx, w, chk, tr, pr, o)
	if err != nil {
		return nil, err
	}
	first := ps.first
	sampled := sample(repConfigs(first.results), 4)
	if err := chk.differential(sampled); err != nil {
		return nil, err
	}
	var wall time.Duration
	for _, st := range ps.plain {
		wall += st.wall
	}
	rep := &report{workload: name, chk: chk, passes: len(ps.plain),
		throughput: rate(countModel(first.results).msgStages, len(ps.plain), wall)}
	e2e := endToEnd(setups, ps)
	if !o.trace {
		rep.metrics = e2e[:len(e2e)-1] // the probe is printed, not a metric
		printReport(stdout, w, rep, e2e, nil)
		return rep, nil
	}

	lr, err := runLadder(sampled, o.seconds/3)
	if err != nil {
		return nil, err
	}
	fi, err := measureFillIns(ctx, w, first, lr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	lm, table := perLayer(w, ps, spans, lr, fi, chk)
	rep.metrics = lm
	path := o.traceOut
	if path == "" {
		path = ".bench_build/spans-" + name + ".json"
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}
	printReport(stdout, w, rep, e2e, table)
	fmt.Fprintf(stdout, "  spans: %d written to %s\n", len(spans), path)
	return rep, nil
}

// passes holds the timed passes of one run.
type passes struct {
	plain, traced []passStats
	tracedOut     []*passOut
	first         *passOut
}

// runPasses runs timed passes until o.seconds have passed and each kind
// has at least minPasses, checking every pass's results. A traced run
// alternates untraced and traced passes, so both see the same machine
// conditions and their ratio is the tracing overhead.
func runPasses(ctx context.Context, w *workload, chk *checker, tr *tracer, pr *prober, o options) (*passes, error) {
	hs := startHeapSampler()
	defer hs.close()
	_, minPasses := w.repeats()
	ps := &passes{}
	deadline := time.Now().Add(o.seconds)
	for i := 0; ; i++ {
		var ptr *tracer
		if o.trace && i%2 == 1 {
			ptr = tr
		}
		req := fmt.Sprintf("pass-%d", i)
		var out *passOut
		st, err := timePass(hs, pr, func() error {
			id := ptr.begin("pass", 0, req)
			defer ptr.end(id)
			var err error
			out, err = w.pass(ctx, ptr, id, req)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", req, err)
		}
		chk.pass(out, ps.first == nil)
		if ps.first == nil {
			ps.first = out
		}
		if ptr != nil {
			ps.traced = append(ps.traced, st)
			ps.tracedOut = append(ps.tracedOut, out)
		} else {
			ps.plain = append(ps.plain, st)
		}
		enough := len(ps.plain) >= minPasses && (!o.trace || len(ps.traced) >= minPasses)
		if enough && time.Now().After(deadline) {
			return ps, nil
		}
		if ctx.Err() != nil {
			return nil, errors.New("out of time before the minimum pass count")
		}
	}
}

// endToEnd computes the end-to-end metrics from the set-up times and the
// untraced passes. Times are at the reference host speed: scaled by
// probeRef over the run's median probe time (probe.go); the notes give
// the times as measured.
func endToEnd(setups []float64, ps *passes) []metric {
	plain := ps.plain
	col := func(f func(passStats) float64) []float64 {
		var xs []float64
		for _, st := range plain {
			xs = append(xs, f(st))
		}
		return xs
	}
	var probes []float64
	for _, st := range append(append([]passStats(nil), plain...), ps.traced...) {
		probes = append(probes, st.probe.Seconds())
	}
	probe := median(probes)
	scale := probeRef.Seconds() / probe
	walls := col(func(s passStats) float64 { return s.wall.Seconds() })
	n := len(plain)
	tail := "no tail percentile: fewer than ten samples beyond any"
	if p, ok := tailPercentile(n); ok {
		tail = fmt.Sprintf("p%g available", p)
	}
	q1, q3 := quartiles(walls)
	setup, wall, cpu := median(setups), median(walls), median(col(func(s passStats) float64 { return s.cpu.Seconds() }))
	return []metric{
		{"setup_s", "s", setup * scale, fmt.Sprintf("median of %d set-ups; %.4g s as measured", len(setups), setup)},
		{"wall_s", "s", wall * scale, fmt.Sprintf("median of n=%d passes; %.4g s as measured, quartiles %.4g–%.4g; %s", n, wall, q1, q3, tail)},
		{"cpu_s", "s", cpu * scale, fmt.Sprintf("median user+sys CPU per pass; %.4g s as measured", cpu)},
		{"peak_heap_mb", "MB", median(col(func(s passStats) float64 { return float64(s.peakHeap) / 1e6 })), "median of each pass's peak live heap, sampled every 10 ms"},
		{"alloc_mb", "MB", median(col(func(s passStats) float64 { return float64(s.allocBytes) / 1e6 })), "median heap allocation per pass"},
		{"probe_ms", "ms", probe * 1e3, fmt.Sprintf("median host-speed probe of %d; times above are scaled by %.4g to the %v reference", len(probes), scale, probeRef)},
	}
}

func printReport(w io.Writer, wl *workload, rep *report, e2e []metric, table []string) {
	mode := "untraced"
	if table != nil {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s run, %d timed passes, %d worker(s))\n", wl.name, mode, rep.passes, wl.par)
	for _, m := range e2e {
		fmt.Fprintf(w, "  %-16s %14.6g %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	fmt.Fprintf(w, "  %-16s %14.6g %-5s message-stages per second of pass wall time\n", "throughput", rep.throughput, "1/s")
	chk := rep.chk
	fmt.Fprintf(w, "  %-16s %14.6g %-5s %d failed of %d attempted\n", "fail_ratio", ratio(float64(chk.failed), float64(chk.attempted)), "1", chk.failed, chk.attempted)
	fmt.Fprintf(w, "  %-16s %14.6g %-5s largest |sim - Theorem 1| / Theorem 1, stage 1\n", "stage1_rel_err", chk.stage1RelErr, "1")
	fmt.Fprintf(w, "  %-16s %14.6g %-5s largest |sim - Section V| / Section V, total wait\n", "total_rel_err", chk.totalRelErr, "1")
	const shown = 20
	for i, f := range chk.failures {
		if i == shown {
			fmt.Fprintf(w, "  ... and %d more failures\n", len(chk.failures)-shown)
			break
		}
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
	if table == nil {
		return
	}
	fmt.Fprintln(w, "  per-layer metrics:")
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "    %-40s %14.6g %-5s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, l := range table {
		fmt.Fprintln(w, "  "+l)
	}
}

// updateDigests runs one pass of each workload at full size and the
// pinned seed and writes every point's digest to path.
func updateDigests(path string, names []string, stdout io.Writer) error {
	all := map[string]map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, name := range names {
		w, err := newWorkload(name, digestSeed, false)
		if err != nil {
			return err
		}
		out, err := w.pass(context.Background(), nil, 0, "digests")
		if err != nil {
			return err
		}
		chk := &checker{seen: map[string]string{}}
		chk.pass(out, true)
		if chk.failed > 0 {
			return fmt.Errorf("%s: refusing to pin digests of a failing run: %s", name, strings.Join(chk.failures, "; "))
		}
		all[name] = chk.seen
		fmt.Fprintf(stdout, "%s: %d point digests\n", name, len(chk.seen))
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
