package simnet

import "testing"

// BenchmarkGraphEngine prices the topology-true engine's two execution
// modes on a 2-ary 8-stage network (256 rows) at ρ=0.5: committed mode
// (infinite buffers, the batch kernel running the wiring tables) against
// blocking mode (finite per-stage buffers, the literal-style cycle loop with
// head-of-line backpressure). B/op and allocs/op are deterministic and
// gated against BENCH_graph.json; ns/op is informational in CI.
func BenchmarkGraphEngine(b *testing.B) {
	base := Config{K: 2, Stages: 8, P: 0.5, Cycles: 20000, Warmup: 500, Seed: 9}
	b.Run("committed", func(b *testing.B) {
		cfg := base
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunGraph(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("blocking", func(b *testing.B) {
		cfg := base
		cfg.StageBuffers = []int{4, 4, 4, 4, 4, 4, 4, 4}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunGraph(&cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
