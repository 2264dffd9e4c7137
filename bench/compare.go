package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json the comparison reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runResult is one run's final JSON line.
type runResult struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// readRuns reads one result line per run.
func readRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// judge compares a change's runs with its parent's on one metric, by the
// rules in README.md: runs are paired in the order they were made.
//
//   - "gain": the change is better in at least nine tenths of the pairs
//     (ties count for neither) and the medians differ by more than the
//     parent's inter-quartile spread;
//   - "unresolved": the parent's spread, as a share of its median, is
//     wider than bound, so the runs cannot show the change is no worse —
//     unless every change run is better than every parent run;
//   - "worse": the change's median is worse than the parent's by more than
//     bound, as a share of the parent's median;
//   - "no worse" otherwise.
func judge(base, cand []float64, bound float64, lowerBetter bool) string {
	better := func(c, b float64) bool {
		if lowerBetter {
			return c < b
		}
		return c > b
	}
	mb, mc := median(base), median(cand)
	q1, q3 := quartiles(base)
	wins := 0
	pairs := min(len(base), len(cand))
	for i := 0; i < pairs; i++ {
		if better(cand[i], base[i]) {
			wins++
		}
	}
	if pairs > 0 && better(mc, mb) && 10*wins >= 9*pairs && abs(mc-mb) > q3-q1 {
		return "gain"
	}
	if (q3-q1)/mb > bound {
		if allBetter(base, cand, better) {
			return "no worse"
		}
		return "unresolved"
	}
	worse := (mc - mb) / mb
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return "worse"
	}
	return "no worse"
}

func allBetter(base, cand []float64, better func(c, b float64) bool) bool {
	for _, c := range cand {
		for _, b := range base {
			if !better(c, b) {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// compare prints, for each end-to-end metric of BENCHMARK.json present in
// the runs, the parent's and the change's medians and quartiles and the
// verdict. It returns an error when any metric is worse.
func compare(specPath, basePath, candPath string, w io.Writer) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readRuns(basePath)
	if err != nil {
		return err
	}
	cand, err := readRuns(candPath)
	if err != nil {
		return err
	}
	if len(base) == 0 || len(cand) == 0 {
		return fmt.Errorf("no runs to compare")
	}
	var names []string
	for name := range base[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	var worse int
	fmt.Fprintf(w, "%d parent runs, %d change runs\n", len(base), len(cand))
	for _, name := range names {
		for _, m := range spec.EndToEnd {
			if name != m.Name && !hasSuffixDot(name, m.Name) {
				continue
			}
			b, c := column(base, name), column(cand, name)
			v := judge(b, c, m.Bound, m.Better == "lower")
			if v == "worse" {
				worse++
			}
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-32s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s  %+.1f%%  bound %.0f%%  %s\n",
				name, median(b), bq1, bq3, median(c), cq1, cq3, m.Unit,
				100*(median(c)-median(b))/median(b), 100*m.Bound, v)
		}
	}
	for _, rs := range [][]runResult{base, cand} {
		for _, r := range rs {
			if !r.Correct {
				return fmt.Errorf("a run failed its checks; its timings do not count")
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func hasSuffixDot(name, metric string) bool {
	n := len(name) - len(metric)
	return n > 0 && name[n-1] == '.' && name[n:] == metric
}

func column(runs []runResult, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}
