package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// the spreads printed here match the ones the calibration procedure in
// README.md computes. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest of the usual tail percentiles that
// has at least ten of n samples beyond it, following the rule that a
// timing is reported as a median plus such a percentile. ok is false when
// no tail percentile qualifies, which is always the case below 11 samples.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, permille := range []int{999, 990, 950, 900, 750} {
		if n*(1000-permille)/1000 >= 10 {
			return float64(permille) / 10, true
		}
	}
	return 0, false
}

// rate is work done per second: work units per operation times the
// operation count, over the elapsed time of all operations. The root
// package's throughput benchmark divides by the operation count a second
// time; see README.md.
func rate(workPerOp int64, ops int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(workPerOp) * float64(ops) / elapsed.Seconds()
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the passes read.
const (
	mHeapObjects = "/memory/classes/heap/objects:bytes"
	mAllocBytes  = "/gc/heap/allocs:bytes"
	mGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU    = "/cpu/classes/total:cpu-seconds"
)

// runtimeReading is one read of the runtime metrics a pass differences.
type runtimeReading struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

func readRuntime() runtimeReading {
	s := []metrics.Sample{{Name: mAllocBytes}, {Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return runtimeReading{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		allCPU:     s[2].Value.Float64(),
	}
}

// heapSampler records the highest live-heap reading, sampled every 10 ms
// on its own goroutine until close.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: mHeapObjects}}
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(s)
			}
		}
	}()
	return h
}

func (h *heapSampler) observe(s []metrics.Sample) {
	metrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap.
func (h *heapSampler) reset() {
	h.max.Store(0)
	h.observe([]metrics.Sample{{Name: mHeapObjects}})
}

// peak returns the highest heap reading since the last reset, including
// the heap right now.
func (h *heapSampler) peak() uint64 {
	h.observe([]metrics.Sample{{Name: mHeapObjects}})
	return h.max.Load()
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// passStats holds the host measurements of one timed pass.
type passStats struct {
	probe      time.Duration // the host-speed probe just before the pass
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	peakHeap   uint64
	gcCPU      float64 // runtime's GC CPU estimate, seconds
	allCPU     float64 // runtime's total CPU estimate, seconds
}

// timePass runs the host-speed probe and then one pass with a collected
// heap, measuring the pass's wall time, CPU, allocation and peak heap.
// The GC before and after is outside the timed interval; the one after
// settles the runtime's CPU-class estimates, which are only brought up to
// date by a collection.
func timePass(hs *heapSampler, pr *prober, pass func() error) (passStats, error) {
	runtime.GC()
	probe := pr.run()
	before := readRuntime()
	hs.reset()
	cpu0 := cpuTime()
	t0 := time.Now()
	err := pass()
	st := passStats{probe: probe, wall: time.Since(t0), cpu: cpuTime() - cpu0, peakHeap: hs.peak()}
	mid := readRuntime()
	runtime.GC()
	after := readRuntime()
	st.allocBytes = mid.allocBytes - before.allocBytes
	st.gcCPU = after.gcCPU - before.gcCPU
	st.allCPU = after.allCPU - before.allCPU
	return st, err
}
