package simnet

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkGraphEngine prices the topology-true engine's two execution
// modes on a 2-ary 8-stage network (256 rows) at ρ=0.5: committed mode
// (infinite buffers, the batch kernel running the wiring tables) against
// blocking mode (finite per-stage buffers, the cycle loop's block policy
// with head-of-line backpressure). B/op and allocs/op are deterministic
// and gated against BENCH.json; ns/op is informational.
func BenchmarkGraphEngine(b *testing.B) {
	base := graphBenchConfig()
	blocking := base
	blocking.StageBuffers = []int{4, 4, 4, 4, 4, 4, 4, 4}
	for _, m := range []struct {
		name string
		cfg  Config
	}{{"committed", base}, {"blocking", blocking}} {
		b.Run(m.name, func(b *testing.B) {
			benchWarm(b, func() {
				cfg := m.cfg
				if _, err := RunEngine(context.Background(), Graph, &cfg, nil); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// BenchmarkLiteralEngine prices the cycle loop's drop policy on
// BenchmarkGraphEngine's network with a uniform four-slot buffer per
// port, fed from a streamed trace the way the sweep runs it. It is
// gated against BENCH.json like the graph rows, so a drop policy that
// grows a parked-port table or stages whole trace blocks shows up in
// B/op and allocs/op.
func BenchmarkLiteralEngine(b *testing.B) {
	benchWarm(b, func() {
		cfg := graphBenchConfig()
		cfg.BufferCap = 4
		src, err := NewTraceStream(&cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RunEngine(context.Background(), Literal, &cfg, src); err != nil {
			b.Fatal(err)
		}
	})
}

// graphBenchConfig is the engine benchmarks' shared network: 2-ary,
// 8 stages (256 rows), ρ=0.5.
func graphBenchConfig() Config {
	return Config{K: 2, Stages: 8, P: 0.5, Cycles: 20000, Warmup: 500, Seed: 9}
}

// benchWarm times run with allocation reporting. A process's first run
// builds the arena its scratch lives in, and later runs reuse it, across
// collections too. Collect first and warm the arena with one untimed
// run, so the gated counts are those of warm runs.
func benchWarm(b *testing.B, run func()) {
	runtime.GC()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
