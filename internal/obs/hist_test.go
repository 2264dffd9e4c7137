package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"banyan/internal/dist"
	"banyan/internal/traffic"
)

// exactQuantile returns the q-th quantile of a sample under the same
// rank convention the Hist uses: the ⌈q·N⌉-th smallest value.
func exactQuantile(sorted []int64, q float64) int64 {
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

func TestHistBucketEdges(t *testing.T) {
	// Every value must land inside its own bucket, and bucket edges must
	// tile the axis without gaps or overlaps.
	values := []int64{0, 1, 2, 127, 128, 129, 255, 256, 257, 1000, 1 << 20, 1<<20 + 1, 1<<40 - 1, 1 << 40, math.MaxInt64}
	for _, v := range values {
		idx := histBucketIndex(v)
		if lo, hi := histBucketLo(idx), histBucketHi(idx); v < lo || v > hi {
			t.Fatalf("value %d maps to bucket %d = [%d, %d]", v, idx, lo, hi)
		}
	}
	for idx := 1; idx < histBuckets; idx++ {
		if histBucketLo(idx) != histBucketHi(idx-1)+1 {
			t.Fatalf("gap between buckets %d and %d: hi=%d lo=%d",
				idx-1, idx, histBucketHi(idx-1), histBucketLo(idx))
		}
	}
	// The documented relative error bound: bucket width ≤ lo/64 in the
	// log-linear region.
	for idx := histLinearMax; idx < histBuckets; idx++ {
		lo, hi := histBucketLo(idx), histBucketHi(idx)
		if w := float64(hi - lo + 1); w > float64(lo)*HistRelError+1e-9 {
			t.Fatalf("bucket %d = [%d, %d] wider than %g·lo", idx, lo, hi, HistRelError)
		}
	}
	if histBucketIndex(-5) != 0 {
		t.Fatalf("negative values must clamp to bucket 0")
	}
}

// TestHistQuantileBounds draws samples from the paper's traffic laws —
// geometric service, constant service, bulk arrivals — at two scales
// (the exact unit-bucket region and, scaled up, the log-linear region)
// and holds every Hist quantile to the documented error bound against
// the exact sorted-sample quantile.
func TestHistQuantileBounds(t *testing.T) {
	geom, err := traffic.GeomService(0.5, 512)
	if err != nil {
		t.Fatal(err)
	}
	konst, err := traffic.ConstService(7)
	if err != nil {
		t.Fatal(err)
	}
	bulk, err := traffic.Bulk(4, 4, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		pmf   dist.PMF
		scale int64
	}{
		{"geometric", geom.PMF(), 1},
		{"geometric-scaled", geom.PMF(), 57},
		{"constant", konst.PMF(), 1},
		{"constant-scaled", konst.PMF(), 905},
		{"bulk-arrivals", bulk.PMF(), 1},
		{"bulk-arrivals-scaled", bulk.PMF(), 3001},
	}
	qs := []float64{0.1, 0.5, 0.9, 0.99, 0.999, 1.0}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			smp := dist.NewSampler(tc.pmf)
			var h Hist
			samples := make([]int64, 20000)
			var sum int64
			for i := range samples {
				v := int64(smp.Sample(rng.Float64(), rng.Float64())) * tc.scale
				samples[i] = v
				sum += v
				h.Record(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			if h.N() != int64(len(samples)) {
				t.Fatalf("N = %d, want %d", h.N(), len(samples))
			}
			if got, want := h.Mean(), float64(sum)/float64(len(samples)); math.Abs(got-want) > 1e-9 {
				t.Fatalf("mean %g, want exact %g", got, want)
			}
			if h.Max() != samples[len(samples)-1] {
				t.Fatalf("max %d, want exact %d", h.Max(), samples[len(samples)-1])
			}
			got := h.Quantiles(qs...)
			for i, q := range qs {
				exact := exactQuantile(samples, q)
				// Quantiles report the bucket's upper edge: never below
				// the exact value, and above it by at most the relative
				// quantization error (exact below histLinearMax).
				if got[i] < float64(exact) {
					t.Fatalf("q=%g: %g below exact %d", q, got[i], exact)
				}
				bound := float64(exact) * (1 + HistRelError)
				if exact < histLinearMax {
					bound = float64(exact)
				}
				if got[i] > bound+1e-9 {
					t.Fatalf("q=%g: %g exceeds bound %g (exact %d)", q, got[i], bound, exact)
				}
			}
		})
	}
}

func TestHistMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fill := func(n int) *Hist {
		h := &Hist{}
		for i := 0; i < n; i++ {
			h.Record(int64(rng.Intn(100000)))
		}
		return h
	}
	a, b, c := fill(1000), fill(500), fill(2000)

	left := &Hist{} // (a ⊕ b) ⊕ c
	left.Merge(a)
	left.Merge(b)
	lab := &Hist{}
	lab.Merge(left)
	lab.Merge(c)

	bc := &Hist{} // a ⊕ (b ⊕ c)
	bc.Merge(b)
	bc.Merge(c)
	right := &Hist{}
	right.Merge(a)
	right.Merge(bc)

	sa, sb := lab.Snapshot(), right.Snapshot()
	if sa.Count != sb.Count || sa.Mean != sb.Mean || sa.Max != sb.Max {
		t.Fatalf("merge not associative: %+v vs %+v", sa, sb)
	}
	if len(sa.Buckets) != len(sb.Buckets) {
		t.Fatalf("bucket sets differ: %d vs %d", len(sa.Buckets), len(sb.Buckets))
	}
	for i := range sa.Buckets {
		if sa.Buckets[i] != sb.Buckets[i] {
			t.Fatalf("bucket %d differs: %+v vs %+v", i, sa.Buckets[i], sb.Buckets[i])
		}
	}
	if sa.Count != 3500 {
		t.Fatalf("merged count %d, want 3500", sa.Count)
	}
	left.Merge(nil) // must not panic
}

func TestHistEdgeCases(t *testing.T) {
	var empty Hist
	if empty.N() != 0 || empty.Mean() != 0 || empty.Max() != 0 {
		t.Fatalf("empty hist not zero: %+v", empty.Snapshot())
	}
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile %g, want 0", q)
	}
	if s := empty.Snapshot(); len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot has buckets: %+v", s.Buckets)
	}

	var one Hist
	one.Record(42)
	for _, q := range []float64{0.001, 0.5, 0.999, 1} {
		if got := one.Quantile(q); got != 42 {
			t.Fatalf("single-value quantile(%g) = %g, want 42", q, got)
		}
	}
	s := one.Snapshot()
	if len(s.Buckets) != 1 || s.Buckets[0] != (HistBucket{Lo: 42, Hi: 42, Count: 1}) {
		t.Fatalf("single-value snapshot: %+v", s.Buckets)
	}

	var neg Hist
	neg.Record(-3)
	if neg.N() != 1 || neg.Quantile(0.5) != 0 {
		t.Fatalf("negative record must clamp to 0: %+v", neg.Snapshot())
	}
}

func TestHistConcurrent(t *testing.T) {
	var h Hist
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(int64(rng.Intn(1 << 20)))
				if i%1000 == 0 {
					h.Quantile(0.9) // concurrent reads must not race
					h.Snapshot()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if h.N() != workers*per {
		t.Fatalf("lost records under concurrency: %d of %d", h.N(), workers*per)
	}
	var total int64
	for _, b := range h.Snapshot().Buckets {
		total += b.Count
	}
	if total != workers*per {
		t.Fatalf("bucket counts sum to %d, want %d", total, workers*per)
	}
}

// sameHist fails unless two histograms read the same: snapshot
// (count, mean, max, quantiles, buckets) and exact sum.
func sameHist(t *testing.T, what string, got, want *Hist) {
	t.Helper()
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) || got.Sum() != want.Sum() {
		t.Fatalf("%s:\ngot  %+v (sum %d)\nwant %+v (sum %d)", what, got.Snapshot(), got.Sum(), want.Snapshot(), want.Sum())
	}
}

// TestHistBufMatchesRecord: recording through a HistBuf and flushing
// leaves a Hist exactly as direct Record calls do — values below 128,
// values from 128 up (recorded straight through), negative values
// (clamped to zero) and the max, whichever side holds it — and flushing
// an empty buffer changes nothing.
func TestHistBufMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mixed := []int64{0, 127, 128, 129, -1, -40, 1 << 20, 3, 3}
	for i := 0; i < 20000; i++ {
		mixed = append(mixed, int64(rng.ExpFloat64()*25)-2)
	}
	for _, tc := range []struct {
		name   string
		values []int64
	}{
		{"mixed", mixed},
		{"below-128", []int64{4, 9, 2, 9, 0, 127}}, // max from the buffer
		{"from-128", []int64{128, 5000, 1 << 40}},  // max from the Hist
		{"negative", []int64{-1, -7, -1 << 40}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var direct, buffered Hist
			var buf HistBuf
			for i, v := range tc.values {
				direct.Record(v)
				buf.Record(&buffered, v)
				if i%4096 == 4095 {
					buf.FlushTo(&buffered) // mid-run flushes, as on an engine tick
				}
			}
			buf.FlushTo(&buffered)
			sameHist(t, "buffered then flushed", &buffered, &direct)
			buf.FlushTo(&buffered)
			sameHist(t, "after a second, empty flush", &buffered, &direct)
		})
	}

	var empty Hist
	var buf HistBuf
	buf.FlushTo(&empty)
	if empty.N() != 0 || empty.Max() != 0 || empty.Sum() != 0 {
		t.Fatalf("empty flush changed an empty Hist: %+v", empty.Snapshot())
	}
	for ci := range empty.chunks {
		if empty.chunks[ci].Load() != nil {
			t.Fatalf("empty flush allocated bucket chunk %d", ci)
		}
	}
}

// TestHistBufConcurrentFlush: run-local buffers on several goroutines
// flushing into one shared Hist — the sweep workers' pattern, checked
// under -race in CI — leave it equal to one Hist fed every input
// directly. Readers snapshot the shared Hist meanwhile.
func TestHistBufConcurrentFlush(t *testing.T) {
	const workers, per = 6, 20000
	inputs := make([][]int64, workers)
	var want Hist
	for w := range inputs {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < per; i++ {
			v := int64(rng.ExpFloat64() * 30)
			if i%97 == 0 {
				v = -v
			}
			inputs[w] = append(inputs[w], v)
			want.Record(v)
		}
	}
	var shared Hist
	var wg sync.WaitGroup
	for w := range inputs {
		wg.Add(1)
		go func(vs []int64) {
			defer wg.Done()
			var buf HistBuf
			for i, v := range vs {
				buf.Record(&shared, v)
				if i%1024 == 1023 {
					buf.FlushTo(&shared)
					shared.Quantile(0.99) // concurrent reads must not race
				}
			}
			buf.FlushTo(&shared)
		}(inputs[w])
	}
	wg.Wait()
	sameHist(t, "shared Hist after concurrent flushes", &shared, &want)
}

func TestHistRegister(t *testing.T) {
	reg := NewRegistry()
	var h Hist
	h.Record(10)
	h.Record(20)
	h.Register(reg, "wait.total")
	snap := reg.Snapshot()
	for name, want := range map[string]float64{"wait.total.count": 2, "wait.total.mean": 15, "wait.total.max": 20, "wait.total.p50": 10, "wait.total.p99": 20} {
		if got, ok := snap[name]; !ok || got != want {
			t.Fatalf("metric %s = %v (registered %v), want %v", name, got, ok, want)
		}
	}
}

func TestHistSet(t *testing.T) {
	reg := NewRegistry()
	s := NewHistSet()
	s.Register(reg, "")
	s.Total().Record(5)
	st := s.Stages(2)
	if len(st) != 2 || s.NumStages() != 2 {
		t.Fatalf("Stages(2) returned %d hists, NumStages %d", len(st), s.NumStages())
	}
	st[0].Record(1)
	st[1].Record(3)
	// Growing again must keep the same histograms and register the new
	// stage lazily.
	st2 := s.Stages(3)
	if st2[0] != st[0] || st2[1] != st[1] {
		t.Fatalf("Stages must return stable per-stage histograms")
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{"wait.total.count": 1, "wait.stage1.p50": 1, "wait.stage2.p50": 3, "wait.stage3.count": 0} {
		if got, ok := snap[name]; !ok || got != want {
			t.Fatalf("hist-set metric %s = %v (registered %v), want %v", name, got, ok, want)
		}
	}
}
