package simnet

import (
	"context"
	"math"
	mrand "math/rand"
	"reflect"
	"testing"

	"banyan/internal/topology"
	"banyan/internal/traffic"
)

// Metamorphic properties of the graph engine. Unlike the collapse
// battery (graph_test.go), which pins the graph engine against the
// stage model, these check invariants of the graph engine against
// itself: relabeling a stage's output rows is a network isomorphism and
// must not change any simulated number, and per-stage waits must sum to
// the total delay message by message.

// relabeledWiring returns wir with every internal stage's output rows
// renamed through an independent random permutation.
func relabeledWiring(t *testing.T, wir *topology.Wiring, seed int64) *topology.Wiring {
	t.Helper()
	rng := mrand.New(mrand.NewSource(seed))
	out := wir
	for stage := 1; stage < wir.Stages(); stage++ {
		var err error
		out, err = out.RelabelStage(stage, rng.Perm(wir.Size()))
		if err != nil {
			t.Fatalf("RelabelStage(%d): %v", stage, err)
		}
	}
	return out
}

// runWired drives the runGraphWired seam on an arena from the free list.
func runWired(cfg *Config, src ArrivalSource, wir *topology.Wiring) (*Result, error) {
	ar := getArena()
	defer ar.release()
	return runGraphWired(context.Background(), cfg, src, wir, ar)
}

// TestGraphRelabelInvariance checks that renaming switch output rows —
// an isomorphism of the network graph — leaves the committed-mode
// Result bit-identical: the engine must depend on the wiring's
// structure, never on its labels.
func TestGraphRelabelInvariance(t *testing.T) {
	cases := []struct {
		kind topology.Kind
		k, n int
	}{
		{topology.Omega, 2, 4},
		{topology.Omega, 3, 3},
		{topology.Butterfly, 2, 4},
		{topology.Butterfly, 4, 2},
		{topology.Flip, 2, 4},
		{topology.Flip, 3, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.kind)+"/k="+itoa(tc.k)+"/n="+itoa(tc.n), func(t *testing.T) {
			t.Parallel()
			cfg := &Config{
				K: tc.k, Stages: tc.n, P: 0.7, Cycles: 1500, Warmup: 200,
				Seed: 0x4e1a ^ uint64(tc.k*31+tc.n), Topology: tc.kind,
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			tr, err := GenerateTrace(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wir, err := topology.WiringFor(tc.kind, tc.k, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			base, err := runWired(cfg, tr.Source(), wir)
			if err != nil {
				t.Fatal(err)
			}
			for rep := int64(0); rep < 3; rep++ {
				rw := relabeledWiring(t, wir, 1000+rep)
				got, err := runWired(cfg, tr.Source(), rw)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(base, got) {
					t.Fatalf("relabel rep %d changed the committed-mode result:\nbase %+v\ngot  %+v",
						rep, base, got)
				}
			}
		})
	}
}

// TestGraphRelabelInvarianceBlocking checks the blocking-mode analogue.
// Blocking mode serves ports in row order, so relabeling reorders
// floating-point accumulation and downstream contention; the invariant
// is conservation plus statistics, not bit identity: message counts
// must match exactly, stage-1 waits to accumulation error (the stage-1
// schedule is label-independent), and deep stages statistically.
func TestGraphRelabelInvarianceBlocking(t *testing.T) {
	cfg := &Config{
		K: 2, Stages: 4, P: 0.7, Cycles: 2000, Warmup: 250,
		Seed: 0xb10c, Topology: topology.Omega,
		StageBuffers: []int{1 << 16, 1 << 16, 1 << 16, 1 << 16},
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wir, err := topology.WiringFor(topology.Omega, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := runWired(cfg, tr.Source(), wir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runWired(cfg, tr.Source(), relabeledWiring(t, wir, 99))
	if err != nil {
		t.Fatal(err)
	}
	if base.Messages != got.Messages || base.Offered != got.Offered || base.Dropped != got.Dropped {
		t.Fatalf("relabel changed conservation: base msgs=%d off=%d drop=%d, got msgs=%d off=%d drop=%d",
			base.Messages, base.Offered, base.Dropped, got.Messages, got.Offered, got.Dropped)
	}
	if d := math.Abs(base.StageWait[0].Mean() - got.StageWait[0].Mean()); d > 1e-9 {
		t.Errorf("stage-1 mean drifted under relabel: %g vs %g", base.StageWait[0].Mean(), got.StageWait[0].Mean())
	}
	for s := 1; s < cfg.Stages; s++ {
		bm, gm := base.StageWait[s].Mean(), got.StageWait[s].Mean()
		tol := 10*base.StageWait[s].StdErr() + 0.02*(1+math.Abs(bm))
		if math.Abs(bm-gm) > tol {
			t.Errorf("stage %d mean drifted under relabel: %g vs %g (tol %g)", s+1, bm, gm, tol)
		}
	}
}

// TestGraphStageWaitsSumToTotal checks, in both modes, that the
// per-stage waiting-time statistics decompose the total delay: every
// measured message's total wait is the sum of its per-stage waits, so
// Σ_stages mean_s · N must equal meanTotal · N to accumulation error.
func TestGraphStageWaitsSumToTotal(t *testing.T) {
	run := func(t *testing.T, cfg *Config) *Result {
		t.Helper()
		res, err := RunEngine(context.Background(), Graph, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	geo, err := traffic.GeomService(0.5, 64)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Config{
		"committed": {K: 3, Stages: 3, P: 0.8, Cycles: 3000, Warmup: 300, Seed: 0x5afe},
		"committed-geom": {K: 2, Stages: 4, P: 0.4, Cycles: 3000, Warmup: 300, Seed: 0x5aff,
			Service: geo},
		"blocking": {K: 3, Stages: 3, P: 0.8, Cycles: 3000, Warmup: 300, Seed: 0x5b00,
			StageBuffers: []int{4, 4, 4}},
	}
	for name, cfg := range cases {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := run(t, cfg)
			var sum float64
			for s := range res.StageWait {
				if n := res.StageWait[s].N(); n != res.Messages {
					t.Fatalf("stage %d counted %d waits, want %d (one per measured message)", s+1, n, res.Messages)
				}
				sum += res.StageWait[s].Mean()
			}
			total := res.TotalWait.Mean()
			if d := math.Abs(sum - total); d > 1e-9*(1+math.Abs(total)) {
				t.Errorf("per-stage waits do not sum to total delay: Σ stage means %.12g, total mean %.12g", sum, total)
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
