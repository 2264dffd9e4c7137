package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: banyan/internal/sweep
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSweepSequential 	       3	 164052734 ns/op	   35482 B/op	     347 allocs/op
BenchmarkSweepParallel-8 	       3	 160123456 ns/op	   35490 B/op	     348 allocs/op
BenchmarkTiny-4          	 1000000	      1052.5 ns/op
BenchmarkVREffectiveness 	       1	 212345678 ns/op	      14.2 ess_per_sec	      12.5 ess_speedup	    1024 B/op	       9 allocs/op
--- BENCH: BenchmarkSweepParallel-8
    bench_test.go:42: GOMAXPROCS=8
PASS
ok  	banyan/internal/sweep	3.1s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %+v", len(got), got)
	}
	seq := got["BenchmarkSweepSequential"]
	if seq["ns/op"] != 164052734 || seq["B/op"] != 35482 || seq["allocs/op"] != 347 {
		t.Fatalf("sequential metrics wrong: %+v", seq)
	}
	// The -8 cpu suffix is stripped; the name keys match baseline style.
	if _, ok := got["BenchmarkSweepParallel"]; !ok {
		t.Fatalf("cpu suffix not stripped: %+v", got)
	}
	// ns/op-only lines (no -benchmem) still parse, with fractional ns,
	// and the columns they lack are absent rather than zero.
	tiny := got["BenchmarkTiny"]
	if tiny["ns/op"] != 1052.5 || len(tiny) != 1 {
		t.Fatalf("tiny metrics wrong: %+v", tiny)
	}
	// Custom b.ReportMetric units ride along with the standard columns.
	vre := got["BenchmarkVREffectiveness"]
	if vre["ess_speedup"] != 12.5 || vre["ess_per_sec"] != 14.2 {
		t.Fatalf("extra metrics wrong: %+v", vre)
	}
	if vre["B/op"] != 1024 || vre["allocs/op"] != 9 {
		t.Fatalf("standard metrics lost around extras: %+v", vre)
	}
}

func discardLogf(string, ...any) {}

func TestDiffGatesRegressions(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkA": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10},
	}

	// Within tolerance: pass.
	got := map[string]row{"BenchmarkA": {"ns/op": 110, "B/op": 1200, "allocs/op": 12}}
	if f := diff(base, got, discardLogf); len(f) != 0 {
		t.Fatalf("within-tolerance run failed: %v", f)
	}

	// Past tolerance on every column: B/op and allocs/op fail, ns/op is
	// printed but never gated.
	got = map[string]row{"BenchmarkA": {"ns/op": 1000, "B/op": 1300, "allocs/op": 13}}
	f := diff(base, got, discardLogf)
	if len(f) != 2 || !strings.Contains(f[0], "B/op") || !strings.Contains(f[1], "allocs/op") {
		t.Fatalf("want B/op and allocs/op failures, got %v", f)
	}

	// Improvements never fail.
	got = map[string]row{"BenchmarkA": {"ns/op": 50, "B/op": 500, "allocs/op": 5}}
	if f := diff(base, got, discardLogf); len(f) != 0 {
		t.Fatalf("improvement flagged as regression: %v", f)
	}

	// Benchmarks absent from the baseline are skipped, not failed.
	got = map[string]row{
		"BenchmarkA":   {"ns/op": 100, "B/op": 1000, "allocs/op": 10},
		"BenchmarkNew": {"ns/op": 1e9, "B/op": 1e9, "allocs/op": 1e9},
	}
	if f := diff(base, got, discardLogf); len(f) != 0 {
		t.Fatalf("unknown benchmark failed the gate: %v", f)
	}

	// A line without -benchmem lacks B/op and allocs/op; each missing
	// gated column fails instead of reading as an improvement to zero.
	got = map[string]row{"BenchmarkA": {"ns/op": 100}}
	if f := diff(base, got, discardLogf); len(f) != 2 {
		t.Fatalf("want 2 missing-column failures, got %v", f)
	}
}

func TestDiffGatesExtraMetrics(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkVR": {NsPerOp: 100, BytesPerOp: 1000, AllocsPerOp: 10, Extra: map[string]float64{
			"ess_speedup": 10, "ess_per_sec": 20,
		}},
	}
	vr := func(extra row) map[string]row {
		r := row{"ns/op": 100, "B/op": 1000, "allocs/op": 10}
		for unit, v := range extra {
			r[unit] = v
		}
		return map[string]row{"BenchmarkVR": r}
	}

	// Custom metrics are higher-is-better: holding or improving passes.
	if f := diff(base, vr(row{"ess_speedup": 12, "ess_per_sec": 25}), discardLogf); len(f) != 0 {
		t.Fatalf("improved extras flagged: %v", f)
	}

	// Both fall past tolerance: the wall-clock-derived *_per_sec metric
	// is printed only; the deterministic ratio fails.
	f := diff(base, vr(row{"ess_speedup": 7, "ess_per_sec": 1}), discardLogf)
	if len(f) != 1 || !strings.Contains(f[0], "ess_speedup") {
		t.Fatalf("want only ess_speedup gated, got %v", f)
	}

	// A baseline ess_speedup that vanishes from the output fails; a
	// vanished ess_per_sec does not.
	f = diff(base, vr(row{"ess_per_sec": 25}), discardLogf)
	if len(f) != 1 || !strings.Contains(f[0], "ess_speedup") {
		t.Fatalf("want a missing ess_speedup failure, got %v", f)
	}
	if f := diff(base, vr(row{"ess_speedup": 10}), discardLogf); len(f) != 0 {
		t.Fatalf("missing ess_per_sec failed the gate: %v", f)
	}

	// Extras missing from the baseline are ignored.
	if f := diff(base, vr(row{"ess_speedup": 10, "new_metric": 1}), discardLogf); len(f) != 0 {
		t.Fatalf("unknown extra failed the gate: %v", f)
	}
}

func TestRegressionZeroBaseline(t *testing.T) {
	// A zero baseline (e.g. 0 allocs/op recorded on an old machine)
	// cannot express a fractional regression; it must not divide by zero
	// or fail spuriously.
	if r := regression(0, 100); r != 0 {
		t.Fatalf("regression(0, 100) = %g", r)
	}
	if r := regression(100, 100); r != 0 {
		t.Fatalf("no-change regression = %g", r)
	}
	if r := regression(100, 150); r != 0.5 {
		t.Fatalf("regression(100, 150) = %g", r)
	}
}

// TestMissingRequired: every baseline row is required, so one absent
// from the input fails the gate.
func TestMissingRequired(t *testing.T) {
	base := map[string]metrics{
		"BenchmarkA": {NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1},
		"BenchmarkB": {NsPerOp: 1, BytesPerOp: 1, AllocsPerOp: 1},
	}
	got := map[string]row{"BenchmarkA": {"ns/op": 1, "B/op": 1, "allocs/op": 1}}
	f := diff(base, got, discardLogf)
	if len(f) != 1 || !strings.HasPrefix(f[0], "BenchmarkB:") {
		t.Fatalf("failures = %v, want BenchmarkB missing", f)
	}
}

// TestBaselineGatedInCI: the repo has one baseline, BENCH.json; CI runs
// the command stored in its "go" field verbatim and feeds the output to
// benchdiff; and that command's -bench pattern selects every row.
func TestBaselineGatedInCI(t *testing.T) {
	root := filepath.Join("..", "..")
	if stale, _ := filepath.Glob(filepath.Join(root, "BENCH_*.json")); len(stale) > 0 {
		t.Fatalf("baselines besides BENCH.json: %v", stale)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Go         string             `json:"go"`
		Benchmarks map[string]metrics `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{rec.Go, "benchdiff -baseline BENCH.json"} {
		if !strings.Contains(string(ci), want) {
			t.Errorf("ci.yml does not run %q", want)
		}
	}
	m := regexp.MustCompile(`-bench '([^']*)'`).FindStringSubmatch(rec.Go)
	if m == nil {
		t.Fatalf("no quoted -bench pattern in %q", rec.Go)
	}
	pattern := regexp.MustCompile(m[1])
	for name := range rec.Benchmarks {
		if top, _, _ := strings.Cut(name, "/"); !pattern.MatchString(top) {
			t.Errorf("row %s is not selected by -bench %s", name, m[1])
		}
	}
}
