package simnet

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/traffic"
)

// mustRun runs cfg on engine e over a generated schedule.
func mustRun(t *testing.T, e Engine, cfg *Config) *Result {
	t.Helper()
	res, err := RunEngine(context.Background(), e, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFullObservabilityBitIdentity is the result-neutrality guarantee
// for the whole telemetry stack at once: probe + live histograms +
// trace sampling + drift histograms attached must leave every simulated
// number bit-identical to a bare run, on both engines.
func TestFullObservabilityBitIdentity(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.45, Bulk: 1, Cycles: 3000, Warmup: 200, Seed: 11, TrackStageWaits: true}
	for _, engine := range []Engine{Fast, Literal} {
		t.Run(engine.String(), func(t *testing.T) {
			plain := base
			bare := mustRun(t, engine, &plain)

			instrumented := base
			probe := obs.NewSimProbe()
			probe.Hists = obs.NewHistSet()
			probe.Tracer = obs.NewTracer(16, 1<<12)
			instrumented.Probe = probe
			instrumented.WaitHists = make([]*stats.Hist, base.Stages)
			for i := range instrumented.WaitHists {
				instrumented.WaitHists[i] = &stats.Hist{}
			}
			got := mustRun(t, engine, &instrumented)

			if !reflect.DeepEqual(bare, got) {
				t.Fatalf("observability changed the result:\nbare %+v\ngot  %+v", bare, got)
			}
			if probe.Tracer.Total() == 0 {
				t.Fatal("tracer collected no spans")
			}
			if probe.Hists.Total().N() != got.Messages {
				t.Fatalf("total hist N %d, messages %d", probe.Hists.Total().N(), got.Messages)
			}
		})
	}
}

// TestWaitHistsMatchStageStats: the drift data path (Config.WaitHists)
// must record exactly the waits the engine reports in StageWait — same
// sample, same moments — and the live obs histograms must agree on the
// exact mean.
func TestWaitHistsMatchStageStats(t *testing.T) {
	for _, engine := range []Engine{Fast, Literal} {
		t.Run(engine.String(), func(t *testing.T) {
			cfg := Config{K: 2, Stages: 3, P: 0.4, Cycles: 4000, Warmup: 200, Seed: 3}
			cfg.WaitHists = make([]*stats.Hist, cfg.Stages)
			for i := range cfg.WaitHists {
				cfg.WaitHists[i] = &stats.Hist{}
			}
			probe := obs.NewSimProbe()
			probe.Hists = obs.NewHistSet()
			cfg.Probe = probe
			res := mustRun(t, engine, &cfg)
			live := probe.Hists.Stages(cfg.Stages)
			for i := 0; i < cfg.Stages; i++ {
				h := cfg.WaitHists[i]
				if h.N() != res.Messages {
					t.Fatalf("stage %d: hist N %d, messages %d", i+1, h.N(), res.Messages)
				}
				if got, want := h.Mean(), res.StageWait[i].Mean(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("stage %d: hist mean %g, Welford mean %g", i+1, got, want)
				}
				if got, want := h.Variance(), res.StageWait[i].Variance(); math.Abs(got-want) > 1e-6 {
					t.Fatalf("stage %d: hist var %g, Welford var %g", i+1, got, want)
				}
				if live[i].N() != res.Messages {
					t.Fatalf("stage %d: live hist N %d, messages %d", i+1, live[i].N(), res.Messages)
				}
				if got, want := live[i].Mean(), res.StageWait[i].Mean(); math.Abs(got-want) > 1e-9 {
					t.Fatalf("stage %d: live mean %g, Welford mean %g", i+1, got, want)
				}
			}
		})
	}
}

func traceAll(t *testing.T, engine Engine, cfg Config) []obs.Span {
	t.Helper()
	probe := obs.NewSimProbe()
	probe.Tracer = obs.NewTracer(1, 1<<16)
	cfg.Probe = probe
	mustRun(t, engine, &cfg)
	return probe.Tracer.Spans()
}

// TestTraceSpanDecomposition validates the span schema on both engines:
// every sampled measured message yields one span whose per-stage waits
// sum to the recorded total, whose service occupies [Start, Depart), and
// whose stages chain by cut-through timing (next enqueue = start + 1).
func TestTraceSpanDecomposition(t *testing.T) {
	const m = 2
	svc, err := traffic.ConstService(m)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{K: 2, Stages: 4, P: 0.2, Cycles: 2000, Warmup: 100, Seed: 5, Service: svc}
	for _, engine := range []Engine{Fast, Literal} {
		t.Run(engine.String(), func(t *testing.T) {
			spans := traceAll(t, engine, base)
			if len(spans) == 0 {
				t.Fatal("no spans collected")
			}
			for _, sp := range spans {
				if sp.Engine != engine.String() {
					t.Fatalf("span engine %q, want %q", sp.Engine, engine)
				}
				if len(sp.Stages) != base.Stages {
					t.Fatalf("span %d has %d stages, want %d", sp.Msg, len(sp.Stages), base.Stages)
				}
				var sum int64
				for i, st := range sp.Stages {
					if st.Stage != i+1 {
						t.Fatalf("span %d: stage numbering %v", sp.Msg, sp.Stages)
					}
					if st.Wait != st.Start-st.Enqueue || st.Wait < 0 {
						t.Fatalf("span %d stage %d: wait %d, start %d, enqueue %d", sp.Msg, st.Stage, st.Wait, st.Start, st.Enqueue)
					}
					if st.Depart != st.Start+m {
						t.Fatalf("span %d stage %d: depart %d, want start+%d", sp.Msg, st.Stage, st.Depart, m)
					}
					if i > 0 {
						// Cut-through: the head enters the next stage one
						// cycle after service starts.
						if st.Enqueue != sp.Stages[i-1].Start+1 {
							t.Fatalf("span %d: stage %d enqueue %d, want prev start+1 = %d",
								sp.Msg, st.Stage, st.Enqueue, sp.Stages[i-1].Start+1)
						}
					}
					sum += st.Wait
				}
				if sp.Stages[0].Enqueue != sp.Arrival {
					t.Fatalf("span %d: first enqueue %d, arrival %d", sp.Msg, sp.Stages[0].Enqueue, sp.Arrival)
				}
				if sum != sp.TotalWait {
					t.Fatalf("span %d: stage waits sum %d, total %d", sp.Msg, sum, sp.TotalWait)
				}
			}
		})
	}
}

// TestTraceSpansJoinAcrossEngines: both engines consume the same trace
// in the same order, so the deterministic ordinal sampling picks the
// same messages in each — spans join message by message on Msg, with
// identical identity fields (destination, stage-1 arrival). The queue
// timings may differ per message (the engines break output-contention
// ties differently; only the statistics agree), so those are not
// compared.
func TestTraceSpansJoinAcrossEngines(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.4, Cycles: 1500, Warmup: 100, Seed: 21}
	fast := traceAll(t, Fast, base)
	literal := traceAll(t, Literal, base)
	if len(fast) == 0 || len(fast) != len(literal) {
		t.Fatalf("span counts differ: fast %d literal %d", len(fast), len(literal))
	}
	sort.Slice(fast, func(i, j int) bool { return fast[i].Msg < fast[j].Msg })
	sort.Slice(literal, func(i, j int) bool { return literal[i].Msg < literal[j].Msg })
	for i := range fast {
		f, l := fast[i], literal[i]
		if f.Msg != l.Msg || f.Dest != l.Dest || f.Arrival != l.Arrival {
			t.Fatalf("span identities differ:\nfast    %+v\nliteral %+v", f, l)
		}
	}
}

// TestTraceSamplingDeterministic: the 1-in-N sample is keyed by the
// measured-message ordinal, so sampled ordinals are exactly the
// multiples of N regardless of engine or ring pressure.
func TestTraceSamplingDeterministic(t *testing.T) {
	base := Config{K: 2, Stages: 2, P: 0.4, Cycles: 1000, Warmup: 50, Seed: 9}
	for _, engine := range []Engine{Fast, Literal} {
		probe := obs.NewSimProbe()
		probe.Tracer = obs.NewTracer(8, 1<<16)
		cfg := base
		cfg.Probe = probe
		mustRun(t, engine, &cfg)
		spans := probe.Tracer.Spans()
		if len(spans) == 0 {
			t.Fatalf("%s: no spans", engine)
		}
		for _, sp := range spans {
			if sp.Msg%8 != 0 {
				t.Fatalf("%s: sampled ordinal %d not a multiple of 8", engine, sp.Msg)
			}
		}
	}
}

// TestProbeZeroAllocPerCycle is the bench guard's testable core: the
// per-cycle allocation slope of the engine (measured by differencing
// two horizons, which cancels fixed setup costs) must not grow when a
// probe is attached — with counters only, and with live histograms on
// top. The baseline slope itself belongs to the engine (trace-block
// streaming), not to observability.
func TestProbeZeroAllocPerCycle(t *testing.T) {
	slope := func(mk func(cycles int) *Config) float64 {
		run := func(cycles int) func() {
			return func() {
				if _, err := Run(mk(cycles)); err != nil {
					t.Fatal(err)
				}
			}
		}
		short := testing.AllocsPerRun(5, run(2000))
		long := testing.AllocsPerRun(5, run(6000))
		return (long - short) / 4000
	}
	base := func(cycles int) *Config {
		return &Config{K: 2, Stages: 3, P: 0.4, Cycles: cycles, Warmup: 100, Seed: 13}
	}
	bare := slope(base)

	probe := obs.NewSimProbe()
	withProbe := slope(func(cycles int) *Config {
		cfg := base(cycles)
		cfg.Probe = probe
		return cfg
	})
	if added := withProbe - bare; added > 0.05 {
		t.Fatalf("attaching a probe adds %.4f allocs/cycle (bare %.4f, probed %.4f)", added, bare, withProbe)
	}

	// Live histograms record on every measured service start; once their
	// bucket chunks exist they must be allocation-free too.
	histProbe := obs.NewSimProbe()
	histProbe.Hists = obs.NewHistSet()
	withHists := slope(func(cycles int) *Config {
		cfg := base(cycles)
		cfg.Probe = histProbe
		return cfg
	})
	if added := withHists - bare; added > 0.05 {
		t.Fatalf("live histograms add %.4f allocs/cycle (bare %.4f, with hists %.4f)", added, bare, withHists)
	}
}
