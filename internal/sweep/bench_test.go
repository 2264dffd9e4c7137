package sweep

import (
	"runtime"
	"testing"
)

// benchGrid is a medium batch: 8 points × 2 replications of a k=2,
// 6-stage network at mixed loads (~0.5M measured messages total).
func benchGrid() []Point {
	g := Grid{
		Ks: []int{2}, Ns: []int{6},
		Ps:     []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85},
		Cycles: 2000, Warmup: 300,
		Reps: 2,
	}
	pts, err := g.Points()
	if err != nil {
		panic(err)
	}
	return pts
}

func runBench(b *testing.B, pts []Point, parallelism int) {
	run := func() {
		r := &Runner{Parallelism: parallelism, RootSeed: 0x5eed}
		if _, err := r.Run(pts); err != nil {
			b.Fatal(err)
		}
	}
	// The kernel's scratch lives in arenas that a process builds on its
	// first runs and reuses from then on, across collections too. Warm
	// them with one untimed op, after a collection, so B/op and allocs/op
	// (gated in CI) measure warm runs, not the arenas' first growth.
	runtime.GC()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSweepSequential is the headline single-core number: one
// worker running every replication on the batch kernel.
func BenchmarkSweepSequential(b *testing.B) { runBench(b, benchGrid(), 1) }

// BenchmarkSweepParallel uses all cores; on an N-core machine the
// speedup over BenchmarkSweepSequential should approach min(N, jobs)
// since the points are independent and the pool works at replication
// granularity.
func BenchmarkSweepParallel(b *testing.B) {
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	runBench(b, benchGrid(), 0)
}
