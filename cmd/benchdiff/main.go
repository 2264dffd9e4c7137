// Command benchdiff is the repo's benchmark regression gate: it parses
// `go test -bench` output (from stdin or a file) and compares it against
// the checked-in baseline BENCH.json, failing with exit status 1 when a
// gated metric regresses more than 20%.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem -cpu 1 ./... | benchdiff -baseline BENCH.json
//
// The baseline's "go" field holds the exact command that recorded it;
// CI runs that command and pipes its output here.
//
// Every baseline row must appear in the input, and so must every gated
// column of it. The gate is fixed:
//
//   - B/op and allocs/op are deterministic and fail when the measured
//     value rises more than 20% above the baseline. They also fail when
//     it falls more than 20% below: the baseline is stale, and a
//     one-sided gate would let the footprint grow back unnoticed until
//     it passed the old figure. Re-record BENCH.json then.
//   - Custom b.ReportMetric units (the baseline's "extra" map) are
//     higher-is-better and fail when the measured value falls more than
//     20% below the baseline, except those ending in "_per_sec".
//   - ns/op and "_per_sec" units are wall-clock-bound. They are printed
//     next to their baseline and never gated.
//
// Benchmarks present in the input but absent from the baseline are
// reported and skipped. Sub-benchmark names keep their path
// ("BenchmarkGraphEngine/committed") and the -cpu suffix ("-8") is
// stripped, matching the baseline's key style.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// tolerance is the allowed fractional worsening of every gated metric.
const tolerance = 0.20

// metrics is one baseline row. ns/op is a float in `go test` output for
// sub-microsecond benchmarks; keep the parsed precision.
type metrics struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (e.g. "ess_speedup"),
	// gated higher-is-better.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// row maps a unit ("ns/op", "B/op", "allocs/op", "ess_speedup", …) to
// its value; a unit absent from a measured row was not reported.
type row map[string]float64

func (m metrics) row() row {
	r := row{"ns/op": m.NsPerOp, "B/op": m.BytesPerOp, "allocs/op": m.AllocsPerOp}
	for unit, v := range m.Extra {
		r[unit] = v
	}
	return r
}

type baseline struct {
	Benchmarks map[string]metrics `json:"benchmarks"`
}

// parseBenchOutput extracts benchmark result lines from `go test -bench`
// output. A result line looks like
//
//	BenchmarkName-8   3   164052734 ns/op   35482 B/op   347 allocs/op
//
// where the B/op and allocs/op columns appear only under -benchmem or
// b.ReportAllocs, and the -N GOMAXPROCS suffix is optional. A column the
// line lacks is absent from its row, not zero.
func parseBenchOutput(r io.Reader) (map[string]row, error) {
	out := map[string]row{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		m := row{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			// MB/s is go test's own throughput column and stays out of
			// the gate.
			if unit := fields[i+1]; unit != "MB/s" {
				m[unit] = v
			}
		}
		if _, ok := m["ns/op"]; ok {
			out[name] = m
		}
	}
	return out, sc.Err()
}

// regression returns the fractional increase of got over base, 0 when the
// metric improved or the baseline is zero (nothing to regress from).
func regression(base, got float64) float64 {
	if base <= 0 || got <= base {
		return 0
	}
	return (got - base) / base
}

// shortfall is regression's higher-is-better mirror for custom metrics:
// the fractional drop of got below base, 0 when the metric held or
// improved.
func shortfall(base, got float64) float64 {
	if base <= 0 || got >= base {
		return 0
	}
	return (base - got) / base
}

// gated reports whether unit fails the gate when it worsens: everything
// but the wall-clock-bound ns/op and *_per_sec units.
func gated(unit string) bool {
	return unit != "ns/op" && !strings.HasSuffix(unit, "_per_sec")
}

// lowerIsBetter reports the direction of unit: the standard go test
// columns are costs, custom metrics are higher-is-better.
func lowerIsBetter(unit string) bool {
	return unit == "ns/op" || unit == "B/op" || unit == "allocs/op"
}

// diff compares measured benchmarks against the baseline and returns
// human-readable failure lines: one per baseline row missing from got,
// per gated column missing from a row, per gated column worse than its
// baseline by more than the tolerance, and per B/op or allocs/op column
// better than its baseline by more than the tolerance (a stale
// baseline).
func diff(base map[string]metrics, got map[string]row, logf func(string, ...any)) []string {
	var failures []string
	for _, name := range sortedKeys(base) {
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in the baseline but missing from the input", name))
			continue
		}
		b := base[name].row()
		for _, unit := range sortedKeys(b) {
			bv := b[unit]
			gv, ok := g[unit]
			switch {
			case !ok && gated(unit):
				failures = append(failures, fmt.Sprintf("%s %s: in the baseline but missing from the input", name, unit))
				continue
			case !ok:
				logf("%s %s: missing from the input, not gated", name, unit)
				continue
			case !gated(unit):
				logf("%s %s: %.6g -> %.6g, not gated", name, unit, bv, gv)
				continue
			}
			worse, better, gain := shortfall(bv, gv), gv > bv, 0.0
			if lowerIsBetter(unit) {
				worse, better, gain = regression(bv, gv), gv < bv, shortfall(bv, gv)
			}
			switch {
			case worse > tolerance:
				failures = append(failures, fmt.Sprintf(
					"%s %s worsened %.1f%%: %.6g -> %.6g (tolerance %.0f%%)",
					name, unit, 100*worse, bv, gv, 100*tolerance))
			case gain > tolerance:
				failures = append(failures, fmt.Sprintf(
					"%s %s improved %.1f%%: %.6g -> %.6g (tolerance %.0f%%); baseline stale: re-record BENCH.json",
					name, unit, 100*gain, bv, gv, 100*tolerance))
			case better:
				logf("%s %s improved: %.6g -> %.6g", name, unit, bv, gv)
			}
		}
	}
	for _, name := range sortedKeys(got) {
		if _, ok := base[name]; !ok {
			logf("%s: not in the baseline, skipped", name)
		}
	}
	return failures
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")
	basePath := flag.String("baseline", "", "baseline JSON file (required)")
	flag.Parse()

	if *basePath == "" {
		log.Fatal("-baseline is required")
	}
	raw, err := os.ReadFile(*basePath)
	if err != nil {
		log.Fatal(err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("%s: %v", *basePath, err)
	}
	if len(base.Benchmarks) == 0 {
		log.Fatalf("%s: no benchmarks", *basePath)
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() == 1 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	} else if flag.NArg() > 1 {
		log.Fatal("at most one input file")
	}
	got, err := parseBenchOutput(in)
	if err != nil {
		log.Fatal(err)
	}

	failures := diff(base.Benchmarks, got, log.Printf)
	for _, f := range failures {
		log.Print(f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	log.Printf("%d baseline benchmarks within tolerance of %s", len(base.Benchmarks), *basePath)
}
