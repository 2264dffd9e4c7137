package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		med, q1, q3 float64
	}{
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{1, 2, 3, 4}, 2.5, 1.25, 3.75},
		{[]float64{10, 2, 8, 4, 6}, 6, 3, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{7, 7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if m := median(c.xs); m != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: median %g quartiles %g %g, want %g %g %g", c.xs, m, q1, q3, c.med, c.q1, c.q3)
		}
	}
}

func TestNoTailPercentileBelowElevenSamples(t *testing.T) {
	for n := 0; n <= 10; n++ {
		if p, ok := tailPercentile(n); ok {
			t.Errorf("n=%d: reported p%g", n, p)
		}
	}
	for n, want := range map[int]float64{40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if p, ok := tailPercentile(n); !ok || p != want {
			t.Errorf("n=%d: got p%g (ok=%v), want p%g", n, p, ok, want)
		}
	}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "pass", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps a: union 10–60
		{Name: "c", ID: 4, Parent: 3, Start: 35, End: 45},
		{Name: "d", ID: 5, Parent: 1, Start: 90, End: 120, Inner: 5}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30, 30 - 10, 10, 30 - 5}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestJudgeAgainstBound(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{70, 130, 90, 110, 80, 120, 100, 60, 140, 100}
	cases := []struct {
		name        string
		base, cand  []float64
		bound       float64
		lowerBetter bool
		want        string
	}{
		{"within bound", base, shift(1.04), 0.05, true, "no worse"},
		{"past bound", base, shift(1.08), 0.05, true, "worse"},
		{"higher is better", base, shift(0.92), 0.05, false, "worse"},
		{"clear gain", base, shift(0.9), 0.05, true, "gain"},
		{"noisy parent, small gain", noisy, shiftOf(noisy, 0.99), 0.05, true, "unresolved"},
		{"noisy parent, loss", noisy, shiftOf(noisy, 1.1), 0.05, true, "unresolved"},
		{"noisy parent, every run better", noisy, shiftOf(noisy, 0.4), 0.05, true, "gain"},
		{"noisy parent, wide bound", noisy, shiftOf(noisy, 1.1), 0.5, true, "no worse"},
	}
	for _, c := range cases {
		if got := judge(c.base, c.cand, c.bound, c.lowerBetter); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func shiftOf(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		out[i] = v * f
	}
	return out
}

// TestRateMultipliesByOperations pins the rate rule the root package's
// BenchmarkSimulatorThroughput breaks: work per operation times the
// operation count, over the elapsed time of all of them.
func TestRateMultipliesByOperations(t *testing.T) {
	const msgStagesPerRun, runs = 3_000_000, 5
	elapsed := 500 * time.Millisecond // five runs of 100 ms: 30M message-stages/s
	if got := rate(msgStagesPerRun, runs, elapsed); got != 30e6 {
		t.Errorf("rate = %g, want 3e7", got)
	}
	// The root benchmark's formula, work/elapsed/N, is N² too small.
	if buggy := float64(msgStagesPerRun) / elapsed.Seconds() / runs; buggy*runs*runs != rate(msgStagesPerRun, runs, elapsed) {
		t.Errorf("buggy formula %g is not rate/N²", buggy)
	}
}

// TestDigestsIndependentOfParallelism: every workload's per-point
// digests are the same with one worker and with two.
func TestDigestsIndependentOfParallelism(t *testing.T) {
	for _, name := range workloadNames {
		var got [2]map[string]string
		for i, par := range []int{1, 2} {
			w, err := newWorkload(name, 11, true)
			if err != nil {
				t.Fatal(err)
			}
			w.par = par
			out, err := w.pass(context.Background(), nil, 0, "test")
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			chk := &checker{seen: map[string]string{}}
			chk.pass(out, true)
			if chk.failed > 0 {
				t.Fatalf("%s at parallelism %d: %v", name, par, chk.failures)
			}
			got[i] = chk.seen
		}
		if len(got[0]) == 0 || !mapsEqual(got[0], got[1]) {
			t.Errorf("%s: digests differ between parallelism 1 and 2", name)
		}
	}
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestSmokeAllWorkloads runs every workload at the tiny size with every
// check on, and checks the printed metrics against BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var reps []*report
	for _, name := range workloadNames {
		var out bytes.Buffer
		rep, err := runWorkload(context.Background(), name, options{seed: 5, tiny: true}, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", name, err, out.String())
		}
		if rep.chk.failed > 0 || rep.chk.attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", name, rep.chk.failed, rep.chk.attempted, rep.chk.failures)
		}
		var names []string
		for _, m := range rep.metrics {
			names = append(names, m.name)
			if m.value <= 0 || math.IsNaN(m.value) {
				t.Errorf("%s: %s = %g", name, m.name, m.value)
			}
		}
		for _, m := range spec.EndToEnd {
			if !slices.Contains(names, m.Name) {
				t.Errorf("%s: end-to-end metric %s missing", name, m.Name)
			}
		}
		reps = append(reps, rep)
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Errorf("smoke run took %v, want under 5s", d)
	}
	b, err := resultJSON(reps, true)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]json.RawMessage
	}
	if err := json.Unmarshal(b, &res); err != nil || !res.Correct || len(res.Metrics) != len(workloadNames)*len(spec.EndToEnd) {
		t.Errorf("result line %s (err %v)", b, err)
	}
}

// TestTracedRunPrintsEveryLayerMetric runs one workload traced at the
// tiny size and checks that it prints exactly BENCHMARK.json's per-layer
// metrics, with their units, and writes its spans.
func TestTracedRunPrintsEveryLayerMetric(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	var out bytes.Buffer
	rep, err := runWorkload(context.Background(), "topology_true", options{seed: 5, tiny: true, trace: true, traceOut: path}, &out)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	units := map[string]string{}
	for _, m := range rep.metrics {
		units[m.name] = m.unit
	}
	if len(units) != len(spec.PerLayer) {
		t.Errorf("printed %d per-layer metrics, BENCHMARK.json lists %d", len(units), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s: printed unit %q (present %v), want %q", m.Name, u, ok, m.Unit)
		}
	}
	if !strings.Contains(out.String(), "layer separation") {
		t.Errorf("no layer-separation table:\n%s", out.String())
	}
	var spans []span
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Errorf("span file: %d spans, err %v", len(spans), err)
	}
}
