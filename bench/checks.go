package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"

	"banyan/internal/core"
	"banyan/internal/delay"
	"banyan/internal/simnet"
	"banyan/internal/stages"
	"banyan/internal/stats"
	"banyan/internal/sweep"
	"banyan/internal/topology"
)

// digestSeed is the seed whose per-point digests are pinned in
// testdata/digests_1986.json (at full size; the tests' tiny size is not
// pinned). Regenerate the file with --update-digests after a change that
// is meant to change simulated results.
const digestSeed = 1986

//go:embed testdata/digests_1986.json
var pinnedDigests []byte

// theorem1Z is the stage-1 tolerance: a point passes when its simulated
// stage-1 mean wait is within theorem1Z standard errors of Theorem 1. The
// standard error is the i.i.d. one, sqrt(var/n) with Theorem 1's
// variance, inflated by (1+ρ)/(1-ρ) for the autocorrelation of waits at
// one queue. Over 30 seeds of sweep_small and 8 of each other workload
// the largest deviation seen was 3.2.
const theorem1Z = 6

// checker runs the benchmark's result checks and counts what failed.
type checker struct {
	attempted, failed int
	failures          []string

	seen   map[string]string // label → digest, from the first pass that ran it
	pinned map[string]string // label → digest pinned for this workload; nil = not checked

	// Largest relative errors against the analytic predictions, over the
	// uniform-traffic, infinite-buffer, constant-service points.
	stage1RelErr, totalRelErr float64
}

// newChecker returns a checker for workload name. The pinned digests
// apply only at the full size and digestSeed.
func newChecker(name string, seed uint64, tiny bool) (*checker, error) {
	c := &checker{seen: map[string]string{}}
	if seed != digestSeed || tiny {
		return c, nil
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(pinnedDigests, &all); err != nil {
		return nil, fmt.Errorf("testdata/digests_1986.json: %w", err)
	}
	c.pinned = all[name]
	if c.pinned == nil {
		c.pinned = map[string]string{}
	}
	return c, nil
}

func (c *checker) fail(label, problem string) {
	c.failed++
	c.failures = append(c.failures, label+": "+problem)
}

// digest is the FNV-64a hash of every simulated statistic of a point's
// replications, in the exact-state JSON encoding the resume journal uses.
func digest(runs []*simnet.Result) string {
	b, err := json.Marshal(runs)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// pass checks every point of one pass. The analytic comparison is made on
// the first pass only: later passes must reproduce its digests exactly,
// so their statistics are the same.
func (c *checker) pass(out *passOut, first bool) {
	byLabel := map[string]string{}
	for _, pr := range out.results {
		c.attempted++
		label := pr.Point.Label
		var problems []string
		if pr.Err != nil {
			problems = append(problems, "error: "+pr.Err.Error())
		}
		if pr.Truncated() {
			problems = append(problems, "truncated")
		}
		if slices.ContainsFunc(pr.Runs, func(r *simnet.Result) bool { return r != nil && r.Unstable }) {
			problems = append(problems, "unstable")
		}
		d := digest(pr.Runs)
		byLabel[label] = d
		if prev, ok := c.seen[label]; ok && prev != d {
			problems = append(problems, "digest "+d+" differs from the first run's "+prev)
		} else {
			c.seen[label] = d
		}
		if c.pinned != nil && c.pinned[label] != d {
			problems = append(problems, fmt.Sprintf("digest %s differs from testdata/digests_1986.json (%q)", d, c.pinned[label]))
		}
		if first && pr.Err == nil {
			if p := c.theory(pr); p != "" {
				problems = append(problems, p)
			}
		}
		if len(problems) > 0 {
			c.fail(label, strings.Join(problems, "; "))
		}
	}
	if out.resumed == nil {
		return
	}
	for _, pr := range out.resumed {
		c.attempted++
		if d := digest(pr.Runs); d != byLabel[pr.Point.Label] {
			c.fail(pr.Point.Label, "journal-resumed digest "+d+" differs from the fresh run's "+byLabel[pr.Point.Label])
		}
	}
	if p := out.runners[1].Counters().Snapshot(); p.PointsResumed != int64(len(out.resumed)) {
		c.fail("resume", fmt.Sprintf("%d of %d points served from the journal", p.PointsResumed, len(out.resumed)))
	}
}

// analytic returns Theorem 1's stage-1 mean wait and its variance and the
// Section V total mean wait of a uniform-traffic, infinite-buffer point
// with a constant message size, and that size; ok is false for any other
// point.
func analytic(cfg *simnet.Config) (stage1, var1, total float64, m int, ok bool) {
	finite := slices.ContainsFunc(cfg.StageBuffers, func(b int) bool { return b > 0 })
	if cfg.Q != 0 || cfg.HotModule != 0 || cfg.Burst != nil || cfg.Bulk > 1 || cfg.ResampleService ||
		cfg.BufferCap != 0 || finite || len(cfg.FailLinks) > 0 {
		return 0, 0, 0, 0, false
	}
	m = 1
	if sup := cfg.Service.PMF().SortedSupport(0); len(sup) > 1 {
		return 0, 0, 0, 0, false
	} else if len(sup) == 1 {
		m = sup[0]
	}
	nw, err := delay.New(stages.DefaultModel(), stages.Params{K: cfg.K, M: m, P: cfg.P}, cfg.Stages)
	if err != nil {
		return 0, 0, 0, 0, false
	}
	return core.ConstServiceMeanWait(cfg.K, cfg.K, cfg.P, m), core.ConstServiceVarWait(cfg.K, cfg.K, cfg.P, m),
		nw.TotalMeanWait(), m, true
}

// theory compares a point's simulated stage-1 and total mean waits with
// the analytic predictions, returning a problem when stage 1 is outside
// the Theorem-1 tolerance.
func (c *checker) theory(pr *sweep.PointResult) string {
	cfg := &pr.Point.Cfg
	want1, var1, wantTotal, m, ok := analytic(cfg)
	if !ok {
		return ""
	}
	var s1 stats.Welford
	var total float64
	var n int64
	for _, r := range pr.Runs {
		s1.Merge(r.StageWait[0])
		total += r.MeanTotalWait() * float64(r.Messages)
		n += r.Messages
	}
	total /= float64(n)
	got1 := s1.Mean()
	if want1 > 0 {
		c.stage1RelErr = max(c.stage1RelErr, math.Abs(got1-want1)/want1)
	}
	if wantTotal > 0 {
		c.totalRelErr = max(c.totalRelErr, math.Abs(total-wantTotal)/wantTotal)
	}
	rho := cfg.P * float64(m)
	se := math.Sqrt(var1/float64(s1.N())) * (1 + rho) / (1 - rho)
	if math.Abs(got1-want1) > theorem1Z*se {
		return fmt.Sprintf("stage-1 mean wait %.5f is %.1f standard errors from Theorem 1's %.5f (tolerance %d)",
			got1, math.Abs(got1-want1)/se, want1, theorem1Z)
	}
	return ""
}

// differential runs shortened copies of sampled configurations outside
// the timed passes and checks that the batch kernel matches the scalar
// reference engine bit for bit, and that the graph engine's committed
// omega mode matches the kernel bit for bit.
func (c *checker) differential(cfgs []repConfig) error {
	var uniform int
	for i, rc := range cfgs {
		kc := shorten(stageForm(rc.cfg), 200_000)
		kernel, err := runEngine(sweep.Fast, &kc, nil)
		if err != nil {
			return fmt.Errorf("%s: kernel: %w", rc.label, err)
		}
		if i < 3 {
			ref, err := runEngine(sweep.Reference, &kc, nil)
			if err != nil {
				return fmt.Errorf("%s: reference: %w", rc.label, err)
			}
			c.attempted++
			if a, b := digest([]*simnet.Result{kernel}), digest([]*simnet.Result{ref}); a != b {
				c.fail(rc.label, "kernel digest "+a+" differs from the reference engine's "+b)
			}
		}
		if _, _, _, _, ok := analytic(&kc); !ok || uniform >= 2 || intPow(kc.K, kc.Stages) > 4096 {
			continue
		}
		uniform++
		gc := kc
		gc.Topology = topology.Omega
		graph, err := runEngine(sweep.Graph, &gc, nil)
		if err != nil {
			return fmt.Errorf("%s: graph: %w", rc.label, err)
		}
		c.attempted++
		if a, b := digest([]*simnet.Result{graph}), digest([]*simnet.Result{kernel}); a != b {
			c.fail(rc.label, "graph committed omega digest "+a+" differs from the kernel's "+b)
		}
	}
	return nil
}
