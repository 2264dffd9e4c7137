package simnet

import (
	"context"
	"reflect"
	"testing"

	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/traffic"
)

// kernelIdentityCases is the differential matrix for the batch kernel:
// every feature the per-message body branches on (non-power-of-two
// radix, hot module, favorite outputs, bulk batches, bursty sources,
// service resampling, wrapped shuffles, per-stage wait tracking, wait
// histograms, saturation/truncation) appears in at least one case, so a
// kernel change that breaks byte-identity on any path fails here before
// it reaches the goldens.
func kernelIdentityCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"uniform", Config{K: 2, Stages: 6, P: 0.5, Cycles: 2000, Warmup: 300, Seed: 1}},
		{"non-pow2 radix", Config{K: 3, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 200, Seed: 2}},
		{"bulk const svc", Config{K: 2, Stages: 4, P: 0.12, Bulk: 2, Service: mustConstSvc(t, 3),
			Cycles: 1800, Warmup: 250, Seed: 3}},
		{"favorite", Config{K: 2, Stages: 5, P: 0.5, Q: 0.3, Cycles: 1500, Warmup: 200, Seed: 4}},
		{"hot module", Config{K: 2, Stages: 4, P: 0.3, HotModule: 0.05, Cycles: 1500, Warmup: 200, Seed: 5}},
		{"resampled multi svc", Config{K: 2, Stages: 4, P: 0.2, ResampleService: true,
			Service: mustMultiSvc(t), Cycles: 1800, Warmup: 200, Seed: 6}},
		{"bursty", Config{K: 2, Stages: 4, P: 0.3, Cycles: 1500, Warmup: 200, Seed: 7,
			Burst: &BurstParams{POnRate: 0.125, POffRate: 0.125}}},
		{"wrapped", Config{K: 2, Stages: 13, P: 0.4, Cycles: 1200, Warmup: 150, Seed: 8, MaxRows: 512}},
		{"stage waits tracked", Config{K: 2, Stages: 5, P: 0.5, Cycles: 1500, Warmup: 200, Seed: 9,
			TrackStageWaits: true}},
		{"saturated", Config{K: 2, Stages: 6, P: 0.95, Cycles: 4000, Warmup: 100, Seed: 10,
			MaxInFlight: 2000}},
	}
}

func mustMultiSvc(t *testing.T) traffic.Service {
	t.Helper()
	svc, err := traffic.MultiService([]traffic.SizeMix{
		{Size: 1, Prob: 0.6}, {Size: 4, Prob: 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// runBoth executes one configuration on the kernel and on the reference
// engine, each from its own stream with the given block size.
func runBoth(t *testing.T, cfg *Config, blockCycles int) (kernel, ref *Result) {
	t.Helper()
	c1, c2 := *cfg, *cfg
	if cfg.WaitHists != nil {
		c1.WaitHists = freshHists(cfg)
		c2.WaitHists = freshHists(cfg)
	}
	src1, err := NewTraceStream(&c1, blockCycles)
	if err != nil {
		t.Fatal(err)
	}
	kernel, err = RunEngine(context.Background(), Fast, &c1, src1)
	if err != nil {
		t.Fatal(err)
	}
	src2, err := NewTraceStream(&c2, blockCycles)
	if err != nil {
		t.Fatal(err)
	}
	ref, err = RunEngine(context.Background(), Reference, &c2, src2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WaitHists != nil && !reflect.DeepEqual(c1.WaitHists, c2.WaitHists) {
		t.Error("wait histograms diverge between kernel and reference")
	}
	return kernel, ref
}

func freshHists(cfg *Config) []*stats.Hist {
	hs := make([]*stats.Hist, cfg.Stages)
	for i := range hs {
		hs[i] = &stats.Hist{}
	}
	return hs
}

// TestKernelMatchesReferenceExact is the kernel's determinism contract:
// at every seed and every schedule block size, the batch kernel and the
// scalar reference engine produce bit-identical Results — statistics,
// counts, truncation decisions, everything reflect.DeepEqual can see.
func TestKernelMatchesReferenceExact(t *testing.T) {
	for _, c := range kernelIdentityCases(t) {
		for _, bc := range []int{0, 1, 7, 64, 100000} {
			cfg := c.cfg
			kernel, ref := runBoth(t, &cfg, bc)
			if !reflect.DeepEqual(kernel, ref) {
				t.Errorf("%s (block=%d): kernel result differs from reference\nkernel %+v\nref    %+v",
					c.name, bc, kernel, ref)
			}
		}
	}
}

// TestKernelMatchesReferenceWithWaitHists covers the histogram path,
// which lives outside Result and therefore outside DeepEqual above.
func TestKernelMatchesReferenceWithWaitHists(t *testing.T) {
	cfg := Config{K: 2, Stages: 4, P: 0.5, Cycles: 1500, Warmup: 200, Seed: 11}
	cfg.WaitHists = freshHists(&cfg) // non-nil marker; runBoth swaps in fresh pairs
	kernel, ref := runBoth(t, &cfg, 64)
	if !reflect.DeepEqual(kernel, ref) {
		t.Error("results differ with wait hists attached")
	}
}

// TestKernelCancellation: a cancelled context stops the kernel with a
// truncated partial result, like the reference engine.
func TestKernelCancellation(t *testing.T) {
	cfg := Config{K: 2, Stages: 6, P: 0.5, Cycles: 200000, Warmup: 100, Seed: 12}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, err := NewTraceStream(&cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEngine(ctx, Fast, &cfg, src)
	if err == nil {
		t.Fatal("expected context error")
	}
	if res == nil || !res.Truncated {
		t.Fatalf("expected truncated partial result, got %+v", res)
	}
}

// TestGoldenReferenceEngine pins the reference engine to the same
// literals as TestGoldenFastEngine: the two engines share one golden
// map, so the byte-identity contract is anchored to recorded values,
// not merely to each other.
func TestGoldenReferenceEngine(t *testing.T) {
	for _, c := range goldenCases(t) {
		cfg := c.cfg
		src, err := NewTraceStream(&cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := RunEngine(context.Background(), Reference, &cfg, src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, c.name, res, fastGolden)
	}
}

// BenchmarkKernelObserved prices the whole telemetry stack on the batch
// kernel at the shape of the paper's largest total-delay points: k=2,
// 12 stages, 4096 rows, p=0.8, served by one stage group. "bare" runs
// with nothing observed; "full" attaches a probe with live histograms
// and 1-in-64 trace sampling plus the drift histograms, and reports its
// time over the "bare" run just before it as full/bare, so each
// invocation with -count 1 is one alternating pair. BENCH.json gates
// both rows' B/op and allocs/op: the observers' per-batch scratch and
// the open spans live in the arena, and the tracer's ring owns the
// stages it copies, so "full" allocates only histogram growth and
// per-run constants, never per batch or per span.
func BenchmarkKernelObserved(b *testing.B) {
	cfg := Config{K: 2, Stages: 12, P: 0.8, Cycles: 200, Warmup: 50, Seed: 1986}
	probe := obs.NewSimProbe()
	probe.Hists = obs.NewHistSet()
	probe.Tracer = obs.NewTracer(64, 1<<12)
	var bareNs float64
	for _, full := range []bool{false, true} {
		name := map[bool]string{false: "bare", true: "full"}[full]
		b.Run(name, func(b *testing.B) {
			a := new(arena)
			a.split = -1
			benchWarm(b, func() {
				cfg := cfg
				if full {
					cfg.Probe = probe
					cfg.WaitHists = freshHists(&cfg)
				}
				if _, err := runEngine(context.Background(), Fast, &cfg, nil, a); err != nil {
					b.Fatal(err)
				}
			})
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if !full {
				bareNs = ns
			} else if bareNs > 0 {
				b.ReportMetric(ns/bareNs, "full/bare")
			}
		})
	}
}
