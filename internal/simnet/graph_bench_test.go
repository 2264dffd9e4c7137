package simnet

import (
	"runtime"
	"testing"
)

// BenchmarkGraphEngine prices the topology-true engine's two execution
// modes on a 2-ary 8-stage network (256 rows) at ρ=0.5: committed mode
// (infinite buffers, the batch kernel running the wiring tables) against
// blocking mode (finite per-stage buffers, the literal-style cycle loop with
// head-of-line backpressure). B/op and allocs/op are deterministic and
// gated against BENCH_graph.json; ns/op is informational in CI.
func BenchmarkGraphEngine(b *testing.B) {
	base := Config{K: 2, Stages: 8, P: 0.5, Cycles: 20000, Warmup: 500, Seed: 9}
	blocking := base
	blocking.StageBuffers = []int{4, 4, 4, 4, 4, 4, 4, 4}
	for _, m := range []struct {
		name string
		cfg  Config
	}{{"committed", base}, {"blocking", blocking}} {
		b.Run(m.name, func(b *testing.B) {
			run := func() {
				cfg := m.cfg
				if _, err := RunGraph(&cfg); err != nil {
					b.Fatal(err)
				}
			}
			// Committed mode's scratch lives in a sync.Pool arena, which
			// garbage collection empties. Collect first and warm the pool
			// with one untimed run, so no collection lands inside the timed
			// runs and the gated counts do not depend on when one ran.
			runtime.GC()
			run()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
