package simnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sort"
	"testing"

	"banyan/internal/faultinject"
	"banyan/internal/obs"
	"banyan/internal/stats"
	"banyan/internal/topology"
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

// observedEngines are the engine set-ups the observability tests run:
// the batch kernel, the cycle loop under both its drop (literal) and
// block (graph with finite StageBuffers) policies, and the scalar
// reference engine.
var observedEngines = []struct {
	name string
	e    Engine
	set  func(cfg *Config)
}{
	{"fast", Fast, nil},
	{"literal", Literal, nil},
	{"graph-blocking", Graph, func(cfg *Config) {
		cfg.Topology = topology.Omega
		cfg.StageBuffers = make([]int, cfg.Stages)
		for i := range cfg.StageBuffers {
			cfg.StageBuffers[i] = 2
		}
	}},
	{"reference", Reference, nil},
}

// fullProbe attaches the whole telemetry stack to cfg: a probe with
// live histograms and 1-in-16 trace sampling, plus the exact drift
// histograms (Config.WaitHists).
func fullProbe(cfg *Config) *obs.SimProbe {
	probe := obs.NewSimProbe()
	probe.Hists = obs.NewHistSet()
	probe.Tracer = obs.NewTracer(16, 1<<12)
	cfg.Probe = probe
	cfg.WaitHists = make([]*stats.Hist, cfg.Stages)
	for i := range cfg.WaitHists {
		cfg.WaitHists[i] = &stats.Hist{}
	}
	return probe
}

// TestFullObservabilityBitIdentity is the result-neutrality guarantee
// for the whole telemetry stack at once: probe + live histograms +
// trace sampling + drift histograms attached must leave every simulated
// number bit-identical to a bare run, on every engine, and the live
// histograms must hold every measured message once the run has ended.
func TestFullObservabilityBitIdentity(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.45, Bulk: 1, Cycles: 3000, Warmup: 200, Seed: 11, TrackStageWaits: true}
	for _, eng := range observedEngines {
		t.Run(eng.name, func(t *testing.T) {
			plain := base
			if eng.set != nil {
				eng.set(&plain)
			}
			instrumented := plain
			bare := mustRun(t, eng.e, &plain)

			probe := fullProbe(&instrumented)
			got := mustRun(t, eng.e, &instrumented)

			if !reflect.DeepEqual(bare, got) {
				t.Fatalf("observability changed the result:\nbare %+v\ngot  %+v", bare, got)
			}
			if probe.Tracer.Total() == 0 {
				t.Fatal("tracer collected no spans")
			}
			if probe.Hists.Total().N() != got.Messages {
				t.Fatalf("total hist N %d, messages %d", probe.Hists.Total().N(), got.Messages)
			}
			for i, h := range probe.Hists.Stages(base.Stages) {
				if h.N() != got.Messages {
					t.Fatalf("stage %d hist N %d, messages %d", i+1, h.N(), got.Messages)
				}
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

// hookSource wraps an arrival source and calls onNext, with the 1-based
// pull count, before every block pull.
type hookSource struct {
	ArrivalSource
	pulls  int
	onNext func(pulls int)
}

func (h *hookSource) Next() (*TraceBlock, error) {
	h.pulls++
	h.onNext(h.pulls)
	return h.ArrivalSource.Next()
}

// TestLiveHistsFlushOnEarlyStop: a run that stops early — cancelled by
// its context, or killed by a chaos rep.panic — still flushes its
// histogram buffers on the way out, so the live per-stage histograms
// hold exactly the waits the same run recorded directly into
// Config.WaitHists, and the total histogram one entry per message that
// left the last stage.
func TestLiveHistsFlushOnEarlyStop(t *testing.T) {
	base := Config{K: 2, Stages: 3, P: 0.5, Cycles: 8000, Warmup: 100, Seed: 17}
	for _, eng := range observedEngines {
		for _, stop := range []string{"cancel", "panic"} {
			t.Run(eng.name+"/"+stop, func(t *testing.T) {
				cfg := base
				if eng.set != nil {
					eng.set(&cfg)
				}
				probe := fullProbe(&cfg)
				st, err := NewTraceStream(&cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				src := &hookSource{ArrivalSource: st, onNext: func(int) {}}
				if stop == "cancel" {
					src.onNext = func(pulls int) {
						if pulls == 4 {
							cancel()
						}
					}
				} else {
					sched, err := faultinject.Parse("rep.panic:cycle=2500")
					if err != nil {
						t.Fatal(err)
					}
					cfg.Fault = faultinject.New(sched).Rep(1, 0)
				}
				res, err, rec := runRecover(ctx, eng.e, &cfg, src)
				if stop == "cancel" {
					if !errors.Is(err, context.Canceled) || res == nil || !res.Truncated {
						t.Fatalf("cancelled run: err %v, result %+v", err, res)
					}
				} else if fe, ok := rec.(*faultinject.Error); !ok || fe.Class != faultinject.RepPanic {
					t.Fatalf("recovered %v, want the injected rep.panic", rec)
				}
				live := probe.Hists.Stages(cfg.Stages)
				for i, wh := range cfg.WaitHists {
					if wh.N() == 0 {
						t.Fatalf("stage %d recorded nothing before the stop", i+1)
					}
					if live[i].N() != wh.N() || live[i].Max() != int64(wh.Max()) {
						t.Fatalf("stage %d: live N %d max %d, recorded N %d max %d",
							i+1, live[i].N(), live[i].Max(), wh.N(), wh.Max())
					}
				}
				if got, want := probe.Hists.Total().N(), cfg.WaitHists[cfg.Stages-1].N(); got != want {
					t.Fatalf("total hist N %d, messages through the last stage %d", got, want)
				}
			})
		}
	}
}

// runRecover runs cfg on engine e over src and returns whatever the run
// panicked with alongside its results.
func runRecover(ctx context.Context, e Engine, cfg *Config, src ArrivalSource) (res *Result, err error, rec any) {
	defer func() { rec = recover() }()
	res, err = RunEngine(ctx, e, cfg, src)
	return res, err, nil
}

// TestSpanSlotReuse: a slot freed by a finished or dropped message is
// reused by later messages, and must not carry the old span into them.
// Drop-heavy literal and blocking graph points trace every message (and
// every third, so unsampled messages reuse the slots of sampled ones):
// every span has one entry per stage, numbered in order, chained from
// the message's own arrival, with waits summing to its TotalWait.
func TestSpanSlotReuse(t *testing.T) {
	cases := []struct {
		name string
		e    Engine
		cfg  Config
	}{
		{"literal-drop", Literal, Config{K: 2, Stages: 1, P: 0.9, BufferCap: 1, Cycles: 4000, Warmup: 100, Seed: 5}},
		{"graph-blocking", Graph, Config{K: 2, Stages: 3, P: 0.6, StageBuffers: []int{1, 1, 1}, Cycles: 4000, Warmup: 100, Seed: 5}},
	}
	for _, c := range cases {
		for _, every := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/every%d", c.name, every), func(t *testing.T) {
				cfg := c.cfg
				probe := obs.NewSimProbe()
				probe.Tracer = obs.NewTracer(every, 1<<20)
				cfg.Probe = probe
				res, err, rec := runRecover(context.Background(), c.e, &cfg, nil)
				if rec != nil || err != nil {
					t.Fatalf("run failed: err %v, panic %v", err, rec)
				}
				if c.e == Literal && res.Dropped == 0 {
					t.Fatal("the drop-heavy point dropped nothing")
				}
				spans := probe.Tracer.Spans()
				if want := (res.Messages + int64(every) - 1) / int64(every); every == 1 && int64(len(spans)) != want {
					t.Fatalf("%d spans, want one per measured message (%d)", len(spans), want)
				}
				if len(spans) == 0 {
					t.Fatal("no spans collected")
				}
				for _, sp := range spans {
					if len(sp.Stages) != cfg.Stages {
						t.Fatalf("span %d has %d stages, want %d", sp.Msg, len(sp.Stages), cfg.Stages)
					}
					if sp.Stages[0].Enqueue != sp.Arrival {
						t.Fatalf("span %d: first enqueue %d, arrival %d", sp.Msg, sp.Stages[0].Enqueue, sp.Arrival)
					}
					var sum int64
					for i, st := range sp.Stages {
						if st.Stage != i+1 || st.Wait != st.Start-st.Enqueue || st.Wait < 0 {
							t.Fatalf("span %d: stage %d is %+v", sp.Msg, i+1, st)
						}
						sum += st.Wait
					}
					if sum != sp.TotalWait {
						t.Fatalf("span %d: stage waits sum %d, total %d", sp.Msg, sum, sp.TotalWait)
					}
				}
			})
		}
	}
}

// sparseSource delivers one message at the first cycle of every
// gap-cycle block. Each message leaves the network within a few cycles,
// so the kernel skips the rest of its block as idle, across
// context-poll boundaries whenever gap exceeds the poll interval.
type sparseSource struct {
	meta   TraceMeta
	gap    int
	next   int
	blk    TraceBlock
	onNext func(t int64)
}

func (s *sparseSource) Meta() *TraceMeta { return &s.meta }

func (s *sparseSource) Next() (*TraceBlock, error) {
	s.onNext(int64(s.next))
	if s.next >= s.meta.Horizon {
		return nil, nil
	}
	end := min(s.next+s.gap, s.meta.Horizon)
	i := s.next / s.gap
	s.blk = TraceBlock{
		Start: s.next, End: end, Base: int64(i),
		T: []int32{int32(s.next)}, In: []int32{int32(i % s.meta.Rows)},
		Dest: []uint32{uint32(3 * i % s.meta.Rows)}, Svc: []int16{1}, Meas: []bool{true},
	}
	s.next = end
	return &s.blk, nil
}

// TestIdleSkipPolls: the kernel's idle-cycle skip polls the context and
// ticks the probe whenever it jumps past a poll boundary, so on a
// sparse run the live cycle meter and histograms lag the clock by at
// most one poll interval, a cancellation lands before the next block,
// and the results stay those of an unprobed run.
func TestIdleSkipPolls(t *testing.T) {
	cfg := Config{K: 2, Stages: 3, P: 0.001, Cycles: 29900, Warmup: 100, Seed: 3}
	meta, err := newTraceMeta(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Not a multiple of the poll interval, and a divisor of the horizon,
	// so every block's idle tail passes a poll boundary.
	const gap = 3000
	for _, e := range []Engine{Fast, Graph} {
		t.Run(e.String(), func(t *testing.T) {
			bare := cfg
			want, err := RunEngine(context.Background(), e, &bare, &sparseSource{meta: meta, gap: gap, onNext: func(int64) {}})
			if err != nil {
				t.Fatal(err)
			}

			probed := cfg
			probe := obs.NewSimProbe()
			probe.Hists = obs.NewHistSet()
			probed.Probe = probe
			pulls := int64(0)
			src := &sparseSource{meta: meta, gap: gap, onNext: func(at int64) {
				if lag := at - probe.Snapshot().Cycles; lag > ctxCheckMask {
					t.Errorf("pull at cycle %d: probe reports %d cycles, lag %d", at, at-lag, lag)
				}
				if n := probe.Hists.Total().N(); n != pulls {
					t.Errorf("pull at cycle %d: live total hist N %d, want %d", at, n, pulls)
				}
				pulls++
			}}
			got, err := RunEngine(context.Background(), e, &probed, src)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("probe changed the result:\nbare %+v\ngot  %+v", want, got)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const cancelAt = 2 * gap
			cancelled := cfg
			src = &sparseSource{meta: meta, gap: gap, onNext: func(at int64) {
				if at == cancelAt {
					cancel()
				} else if at > cancelAt {
					t.Errorf("pulled the block at cycle %d after the cancellation at %d", at, cancelAt)
				}
			}}
			res, err := RunEngine(ctx, e, &cancelled, src)
			if !errors.Is(err, context.Canceled) || res == nil || !res.Truncated {
				t.Fatalf("cancelled run: err %v, result %+v", err, res)
			}
			if res.TruncatedAt <= cancelAt || res.TruncatedAt >= cancelAt+gap {
				t.Fatalf("truncated at cycle %d, want within the block [%d, %d)", res.TruncatedAt, cancelAt, cancelAt+gap)
			}
		})
	}
}

// TestDebugHistSwitchVerdicts: the /debug/hist switches section reports
// the saturation verdicts the engine decided at the run's own
// Config.SatDepth, so they equal Result.SwitchSat at a shallow depth and
// at the default one, with no depth handed to the debug server.
func TestDebugHistSwitchVerdicts(t *testing.T) {
	saturated := map[int]int{}
	for _, depth := range []int{4, 0} {
		cfg := Config{
			K: 2, Stages: 4, P: 0.5, HotModule: 0.1, Cycles: 3000, Warmup: 300, Seed: 3,
			Topology: topology.Omega, TrackSwitches: true, SatDepth: depth,
		}
		probe := obs.NewSimProbe()
		probe.Hists = obs.NewHistSet()
		cfg.Probe = probe
		res := mustRun(t, Graph, &cfg)

		srv, err := obs.StartDebugServer("127.0.0.1:0", obs.DebugOptions{Hists: probe.Hists, Probe: probe})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get("http://" + srv.Addr() + "/debug/hist")
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Switches []struct {
				Stage     int   `json:"stage"`
				Switch    int   `json:"switch"`
				HighWater int64 `json:"high_water"`
				Blocked   int64 `json:"blocked"`
				Saturated bool  `json:"saturated"`
			} `json:"switches"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(body.Switches) != len(res.SwitchSat) {
			t.Fatalf("depth %d: /debug/hist has %d switches, Result.SwitchSat %d", depth, len(body.Switches), len(res.SwitchSat))
		}
		for i, sw := range body.Switches {
			want := res.SwitchSat[i]
			if sw.Stage != want.Stage || sw.Switch != want.Switch || sw.HighWater != want.HighWater ||
				sw.Blocked != want.Blocked || sw.Saturated != want.Saturated {
				t.Fatalf("depth %d: /debug/hist switch %+v, Result.SwitchSat %+v", depth, sw, want)
			}
			if sw.Saturated {
				saturated[depth]++
			}
		}
	}
	// The depths must tell the run's switches apart, or the test could
	// pass on a server that ignored the run's depth.
	if saturated[4] <= saturated[0] {
		t.Fatalf("depth 4 saturates %d switches, the default depth %d", saturated[4], saturated[0])
	}
	t.Logf("saturated switches: depth 4 → %d, default → %d", saturated[4], saturated[0])
}
