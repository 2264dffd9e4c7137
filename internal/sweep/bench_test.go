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

// benchGridReps is benchGrid at 8 replications per point — the shape
// where lock-step lanes reach full width.
func benchGridReps() []Point {
	g := Grid{
		Ks: []int{2}, Ns: []int{6},
		Ps:     []float64{0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85},
		Cycles: 2000, Warmup: 300,
		Reps: 8,
	}
	pts, err := g.Points()
	if err != nil {
		panic(err)
	}
	return pts
}

func runBench(b *testing.B, pts []Point, parallelism, lanes int) {
	run := func() {
		r := &Runner{Parallelism: parallelism, Lanes: lanes, RootSeed: 0x5eed}
		if _, err := r.Run(pts); err != nil {
			b.Fatal(err)
		}
	}
	// The kernel's scratch lives in sync.Pool arenas, which garbage
	// collection empties, so a collection inside the timed loop bills
	// an arena regrowth to the op that follows it. Collect first and warm
	// the pool with one untimed op: the timed ops allocate too little to
	// start another collection, so B/op and allocs/op (gated in CI)
	// measure the code rather than when the collector ran.
	runtime.GC()
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkSweepSequential is the headline single-core number: one
// worker, auto lane width (W=2 on this grid's 2 replications).
func BenchmarkSweepSequential(b *testing.B) { runBench(b, benchGrid(), 1, 0) }

// BenchmarkSweepSequentialScalar pins the pre-lane configuration —
// Lanes=1 forces the scalar kernel — so the laned/scalar ratio can be
// read off one machine's run.
func BenchmarkSweepSequentialScalar(b *testing.B) { runBench(b, benchGrid(), 1, 1) }

// BenchmarkSweepLanes8 runs the 8-replication grid at full lane width;
// BenchmarkSweepLanes8Scalar is the same batch on the scalar kernel.
func BenchmarkSweepLanes8(b *testing.B)       { runBench(b, benchGridReps(), 1, 8) }
func BenchmarkSweepLanes8Scalar(b *testing.B) { runBench(b, benchGridReps(), 1, 1) }

// BenchmarkSweepParallel uses all cores; on an N-core machine the
// speedup over BenchmarkSweepSequential should approach min(N, jobs)
// since the points are independent and the pool works at replication
// granularity.
func BenchmarkSweepParallel(b *testing.B) {
	b.Logf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	runBench(b, benchGrid(), 0, 0)
}
