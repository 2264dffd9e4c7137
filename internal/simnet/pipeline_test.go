package simnet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"banyan/internal/obs"
	"banyan/internal/stats"
)

// observation is everything a kernel run shows: its result or error,
// the probe's aggregate, the live histograms, the exact drift
// histograms and the trace spans in the order the tracer got them.
type observation struct {
	Res   *Result
	Err   string
	Probe obs.ProbeSnapshot
	Live  []obs.HistSnapshot
	Wait  []*stats.Hist
	Spans []obs.Span
}

// stopper truncates a run from its arrival source: it cancels the run's
// context, or fails the pull, at the block that starts at or after a
// given cycle.
type stopper struct {
	ArrivalSource
	at     int64
	cancel context.CancelFunc // nil: fail the pull instead
}

var errPull = errors.New("pull failed")

func (s *stopper) Next() (*TraceBlock, error) {
	blk, err := s.ArrivalSource.Next()
	if blk != nil && int64(blk.Start) >= s.at {
		if s.cancel == nil {
			return nil, errPull
		}
		s.cancel()
	}
	return blk, err
}

// splitRun is one kernel run of the split tests: cfg with its stages
// split at h (0: one group), observability attached when full, on
// schedule blocks of blockCycles cycles and ring chunks of chunk slots,
// stopped from the source at cycle stopAt when it is positive (by a
// cancellation, or a failed pull with failPull).
type splitRun struct {
	cfg         Config
	h           int
	full        bool
	blockCycles int
	chunk       int
	stopAt      int64
	failPull    bool
	hook        func(t int64, drawn bool)
}

// run executes r on an arena from the pool, as RunEngine would, with
// the split seam set.
func (r splitRun) run(t *testing.T) observation {
	t.Helper()
	cfg := r.cfg
	var probe *obs.SimProbe
	if r.full {
		probe = obs.NewSimProbe()
		probe.Hists = obs.NewHistSet()
		probe.Tracer = obs.NewTracer(3, 1<<16)
		cfg.Probe = probe
		cfg.WaitHists = freshHists(&cfg)
	}
	stream, err := NewTraceStream(&cfg, r.blockCycles)
	if err != nil {
		t.Fatal(err)
	}
	var src ArrivalSource = stream
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if r.stopAt > 0 {
		s := &stopper{ArrivalSource: stream, at: r.stopAt}
		if !r.failPull {
			s.cancel = cancel
		}
		src = s
	}
	a := getArena()
	a.split, a.ringChunk, a.onHelperCycle = r.h, r.chunk, r.hook
	res, err := runEngine(ctx, Fast, &cfg, src, a)
	a.split, a.ringChunk, a.onHelperCycle = 0, 0, nil
	a.release()

	o := observation{Res: res, Wait: cfg.WaitHists}
	if err != nil {
		o.Err = err.Error()
	}
	if probe != nil {
		o.Probe = probe.Snapshot()
		// The free-list counters are per slot store, and the cycle rate
		// is wall-clock: neither is part of the contract.
		o.Probe.FreeListHits, o.Probe.SlotAllocs, o.Probe.FreeListRate, o.Probe.CyclesPerSec = 0, 0, 0, 0
		for _, h := range append(probe.Hists.Stages(cfg.Stages), probe.Hists.Total()) {
			o.Live = append(o.Live, h.Snapshot())
		}
		o.Spans = probe.Tracer.Spans()
	}
	return o
}

// splitCases is the two-group differential matrix: every feature the
// group boundary carries or the backlog guards read — per-stage wait
// lanes, hot-module statistics, resampled service, synchronized draws,
// bulk and multi-size service, favourite outputs, a non-power-of-two
// radix, a wrapped shuffle, and the in-flight, drain and cancellation
// truncations — on small networks.
func splitCases(t *testing.T) []splitRun {
	return []splitRun{
		{cfg: Config{K: 2, Stages: 6, P: 0.5, Cycles: 1500, Warmup: 200, Seed: 1}},
		{cfg: Config{K: 2, Stages: 5, P: 0.5, Cycles: 1200, Warmup: 200, Seed: 2, TrackStageWaits: true}},
		{cfg: Config{K: 2, Stages: 4, P: 0.3, HotModule: 0.05, Cycles: 1500, Warmup: 200, Seed: 3}},
		{cfg: Config{K: 2, Stages: 4, P: 0.2, ResampleService: true, Service: mustMultiSvc(t),
			Cycles: 1500, Warmup: 200, Seed: 4}},
		{cfg: Config{K: 2, Stages: 5, P: 0.6, SyncDraws: true, Cycles: 1200, Warmup: 200, Seed: 5}},
		{cfg: Config{K: 2, Stages: 4, P: 0.12, Bulk: 2, Service: mustConstSvc(t, 3),
			Cycles: 1500, Warmup: 250, Seed: 6}},
		{cfg: Config{K: 2, Stages: 5, P: 0.5, Q: 0.3, Cycles: 1200, Warmup: 200, Seed: 7}},
		{cfg: Config{K: 3, Stages: 3, P: 0.4, Cycles: 1200, Warmup: 200, Seed: 8}},
		{cfg: Config{K: 2, Stages: 9, P: 0.4, Cycles: 800, Warmup: 100, Seed: 9, MaxRows: 64}},
		{cfg: Config{K: 2, Stages: 6, P: 0.95, Cycles: 4000, Warmup: 100, Seed: 10, MaxInFlight: 700}},
		{cfg: Config{K: 2, Stages: 5, P: 0.7, Bulk: 2, Cycles: 600, Warmup: 50, Seed: 11,
			AllowUnstable: true, MaxInFlight: 1 << 20, DrainCycles: 40}},
		{cfg: Config{K: 2, Stages: 6, P: 0.5, Cycles: 30000, Warmup: 100, Seed: 12}, stopAt: 9000},
	}
}

// TestSplitKernelMatchesOneGroup: a kernel run split into two stage
// groups is indistinguishable from the one-group run, split after its
// first stage, in the middle and before its last — the Result, every
// probe figure but the free-list counters,
// the live and drift histograms and the trace spans — bare (the
// specialized service loop) and with the whole telemetry stack.
func TestSplitKernelMatchesOneGroup(t *testing.T) {
	for i, c := range splitCases(t) {
		for _, full := range []bool{false, true} {
			c.h, c.full = 0, full
			c.blockCycles = []int{0, 7, 64}[i%3]
			c.chunk = []int{0, 1, 3}[i%3]
			want := c.run(t)
			if want.Res == nil && want.Err == "" {
				t.Fatalf("case %d: no result", i)
			}
			n := c.cfg.Stages
			for _, h := range []int{1, n / 2, n - 1} {
				if h == c.h || h < 1 {
					continue // n/2 repeats 1 or n-1 on short networks
				}
				c.h = h
				if got := c.run(t); !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d (full=%v) split at %d differs from one group:\nsplit %+v\none   %+v",
						i, full, h, got, want)
				}
			}
		}
	}
}

// TestSplitKernelTruncates: the truncation cases above do truncate, so
// the matrix really compares the guards' decisions.
func TestSplitKernelTruncates(t *testing.T) {
	cases := splitCases(t)
	for _, i := range []int{9, 10, 11} {
		c := cases[i]
		c.h = c.cfg.Stages / 2
		o := c.run(t)
		if o.Res == nil || !o.Res.Truncated {
			t.Fatalf("case %d: want a truncated result, got %+v (err %q)", i, o.Res, o.Err)
		}
	}
}

// settled waits for the goroutine count to fall back to n, the count
// before a run: the helper has closed its done channel when the run
// returns, but may still be unwinding.
func settled(n int) bool {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestSplitKernelExitPaths: on every way a split run can end — the end
// of the schedule, the in-flight and drain guards, a cancellation, a
// failed pull and a panic on the helper goroutine, before it returns a
// cycle's RNG or while it serves the cycle after returning it — the run
// returns its arena and leaves no goroutine behind, and the
// helper's panic surfaces as a *HelperPanicError.
func TestSplitKernelExitPaths(t *testing.T) {
	cases := splitCases(t)
	panicking := func(at int64, drawn bool) func(int64, bool) {
		return func(t int64, d bool) {
			if t == at && d == drawn {
				panic(fmt.Sprintf("injected at cycle %d", t))
			}
		}
	}
	paths := []struct {
		name string
		r    splitRun
	}{
		{"end", cases[0]},
		{"in-flight guard", cases[9]},
		{"drain guard", cases[10]},
		{"cancel", cases[11]},
		{"pull error", splitRun{cfg: cases[11].cfg, stopAt: 9000, failPull: true}},
		{"helper panic", splitRun{cfg: cases[0].cfg, hook: panicking(700, false)}},
		{"helper panic at its first cycle", splitRun{cfg: cases[0].cfg, hook: panicking(0, false)}},
		{"helper panic while serving", splitRun{cfg: cases[0].cfg, hook: panicking(700, true)}},
		{"helper panic while serving its first cycle", splitRun{cfg: cases[0].cfg, hook: panicking(0, true)}},
	}
	for _, p := range paths {
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/full=%v", p.name, full), func(t *testing.T) {
				r := p.r
				r.h, r.full = 3, full
				before := runtime.NumGoroutine()
				o := r.run(t)
				if live := ArenaLive(); live != 0 {
					t.Fatalf("%d arenas still checked out", live)
				}
				if !settled(before) {
					t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), before)
				}
				switch p.name {
				case "end":
					if o.Err != "" || o.Res == nil || o.Res.Truncated {
						t.Fatalf("want a complete run, got %+v (err %q)", o.Res, o.Err)
					}
				case "in-flight guard", "drain guard":
					if o.Err != "" || o.Res == nil || !o.Res.Unstable {
						t.Fatalf("want an unstable truncated result, got %+v (err %q)", o.Res, o.Err)
					}
				case "cancel":
					if o.Err != context.Canceled.Error() || o.Res == nil || !o.Res.Truncated {
						t.Fatalf("want a cancelled truncated result, got %+v (err %q)", o.Res, o.Err)
					}
				case "pull error":
					if o.Err != errPull.Error() || o.Res != nil {
						t.Fatalf("want the pull error, got %+v (err %q)", o.Res, o.Err)
					}
				default:
					if o.Res != nil || !strings.HasPrefix(o.Err, "simnet: kernel helper goroutine panicked: injected") {
						t.Fatalf("want the helper's panic as the error, got %+v (err %q)", o.Res, o.Err)
					}
				}
			})
		}
	}
}

// TestHelperPanicIsTyped: the helper's panic reaches the caller as a
// *HelperPanicError carrying the panic value, not as a crash (or a hang),
// whether it comes before the helper returns a cycle's RNG or while it
// serves that cycle.
func TestHelperPanicIsTyped(t *testing.T) {
	for _, drawn := range []bool{false, true} {
		cfg := Config{K: 2, Stages: 4, P: 0.5, Cycles: 1000, Warmup: 100, Seed: 1}
		boom := errors.New("boom")
		a := getArena()
		a.split = 2
		a.onHelperCycle = func(t int64, d bool) {
			if t == 300 && d == drawn {
				panic(boom)
			}
		}
		res, err := runEngine(context.Background(), Fast, &cfg, nil, a)
		a.split, a.onHelperCycle = 0, nil
		a.release()
		var hp *HelperPanicError
		if res != nil || !errors.As(err, &hp) || !errors.Is(err, boom) {
			t.Fatalf("drawn=%v: want a *HelperPanicError wrapping the panic, got %v, %+v", drawn, err, res)
		}
		if len(hp.Stack) == 0 {
			t.Fatalf("drawn=%v: the panic error carries no stack", drawn)
		}
	}
}

// BenchmarkKernelStageGroups times one deep, wide replication — k=2,
// 12 stages, 4096 rows, p=0.8, the shape of the paper's total-delay
// tables at their largest — served by one stage group and split over
// two, on the same binary. "one" runs first and "two" reports its time
// over the "one" run just before it as two/one, so each invocation with
// -count 1 is one alternating pair. At -cpu 1 the split still runs, on
// a single core, and the ratio prices the handoffs alone.
func BenchmarkKernelStageGroups(b *testing.B) {
	cfg := Config{K: 2, Stages: 12, P: 0.8, Cycles: 450, Warmup: 100, Seed: 1986}
	var oneNs float64
	for _, c := range []struct {
		name  string
		split int
	}{{"one", -1}, {"two", splitAt(cfg.Stages)}} {
		b.Run(c.name, func(b *testing.B) {
			a := new(arena)
			a.split = c.split
			run := func() {
				cfg := cfg
				if _, err := runEngine(context.Background(), Fast, &cfg, nil, a); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the arena
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if c.split < 0 {
				oneNs = ns
			} else if oneNs > 0 {
				b.ReportMetric(ns/oneNs, "two/one")
			}
		})
	}
}
