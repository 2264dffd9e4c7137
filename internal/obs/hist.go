package obs

import (
	"math"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
)

// Histogram bucket scheme, shared by every Hist so any two histograms
// merge bucket-for-bucket:
//
//   - values in [0, 128) get one exact bucket each (waiting times in a
//     stable network are almost always here, so the common case is
//     lossless);
//   - values in [2^e, 2^{e+1}) for e = 7…62 are split into 64 equal
//     sub-buckets per octave (log-linear, HDR-histogram style), so the
//     relative quantization error is bounded by 1/64 ≈ 1.6% everywhere.
//
// Buckets are atomic counters grouped into lazily allocated chunks:
// once the chunks covering a workload's value range exist, recording is
// allocation-free, which is what lets the engines feed a Hist from
// their hot loops.
const (
	histLinearMax = 128 // values below this get exact unit buckets
	histSubBits   = 6
	histSubCount  = 1 << histSubBits // sub-buckets per octave
	histFirstExp  = 7                // first octave covers [128, 256)
	histLastExp   = 62               // last octave reaches every positive int64
	histBuckets   = histLinearMax + (histLastExp-histFirstExp+1)*histSubCount
	histChunkLen  = 64 // buckets per lazily allocated chunk
	histChunks    = histBuckets / histChunkLen
)

// HistRelError is the worst-case relative quantization error of a Hist
// quantile for values ≥ histLinearMax (values below are exact).
const HistRelError = 1.0 / histSubCount

type histChunk [histChunkLen]atomic.Int64

// histBucketIndex maps a value to its bucket. Negative values clamp to
// bucket 0 (waiting times are nonnegative; an observability histogram
// must not panic the simulation feeding it).
func histBucketIndex(v int64) int {
	if v < histLinearMax {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1
	sub := int((v - 1<<uint(e)) >> uint(e-histSubBits))
	return histLinearMax + (e-histFirstExp)*histSubCount + sub
}

// histBucketHi returns the largest value mapping to bucket idx — the
// value Quantile reports, so quantiles are conservative upper bounds.
func histBucketHi(idx int) int64 {
	if idx < histLinearMax {
		return int64(idx)
	}
	o := idx - histLinearMax
	e := uint(histFirstExp + o/histSubCount)
	s := int64(o % histSubCount)
	return int64(1)<<e + (s+1)<<(e-histSubBits) - 1
}

// histBucketLo returns the smallest value mapping to bucket idx.
func histBucketLo(idx int) int64 {
	if idx < histLinearMax {
		return int64(idx)
	}
	o := idx - histLinearMax
	e := uint(histFirstExp + o/histSubCount)
	s := int64(o % histSubCount)
	return int64(1)<<e + s<<(e-histSubBits)
}

// Hist is a streaming histogram of nonnegative integer observations
// (waiting times in cycles) with bounded-error quantiles. It is safe
// for concurrent recording and reading, allocation-free once its value
// range has been touched, and mergeable: every Hist uses the same fixed
// bucket scheme, so Merge is associative and commutative bucket-wise.
// The zero value is ready to use.
type Hist struct {
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
	chunks [histChunks]atomic.Pointer[histChunk]
}

// Record folds one observation into the histogram. Negative values
// clamp to zero.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := histBucketIndex(v)
	c := h.chunks[idx/histChunkLen].Load()
	if c == nil {
		c = h.chunk(idx / histChunkLen)
	}
	c[idx%histChunkLen].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	h.raiseMax(v)
}

// raiseMax lifts the recorded maximum to at least v.
func (h *Hist) raiseMax(v int64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// chunk returns bucket chunk ci, allocating it on first touch (CAS
// keeps concurrent first touches from losing counts).
func (h *Hist) chunk(ci int) *histChunk {
	if c := h.chunks[ci].Load(); c != nil {
		return c
	}
	c := new(histChunk)
	if h.chunks[ci].CompareAndSwap(nil, c) {
		return c
	}
	return h.chunks[ci].Load()
}

// N returns the number of observations.
func (h *Hist) N() int64 { return h.count.Load() }

// Mean returns the exact mean of the observations (sums are kept
// exactly; only quantiles are bucketed).
func (h *Hist) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the exact largest observation (0 when empty).
func (h *Hist) Max() int64 { return h.max.Load() }

// Sum returns the exact sum of all observations (the numerator of
// Mean; OpenMetrics exposition serves it as the _sum sample).
func (h *Hist) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound for the q-th quantile: the upper edge
// of the first bucket whose cumulative count reaches ⌈q·N⌉. Exact for
// values below 128; within HistRelError relative error above. Returns 0
// for an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	return h.Quantiles(q)[0]
}

// Quantiles evaluates several quantiles in one pass over the buckets.
// The qs must be given in ascending order.
func (h *Hist) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	n := h.count.Load()
	if n == 0 {
		return out
	}
	ranks := make([]int64, len(qs))
	for i, q := range qs {
		r := int64(math.Ceil(q * float64(n)))
		if r < 1 {
			r = 1
		}
		if r > n {
			r = n
		}
		ranks[i] = r
	}
	var cum int64
	next := 0
	for ci := 0; ci < histChunks && next < len(qs); ci++ {
		c := h.chunks[ci].Load()
		if c == nil {
			continue
		}
		for off := 0; off < histChunkLen && next < len(qs); off++ {
			cum += c[off].Load()
			for next < len(qs) && cum >= ranks[next] {
				out[next] = float64(histBucketHi(ci*histChunkLen + off))
				next++
			}
		}
	}
	// Concurrent recording can leave the bucket walk one observation
	// short of the count read above; the final bucket answers the rest.
	for next < len(qs) {
		out[next] = float64(h.max.Load())
		next++
	}
	return out
}

// Merge adds another histogram's contents into this one, bucket for
// bucket. Both histograms may be recorded into concurrently; merging is
// associative because all Hists share one bucket scheme.
func (h *Hist) Merge(o *Hist) {
	if o == nil {
		return
	}
	for ci := range o.chunks {
		oc := o.chunks[ci].Load()
		if oc == nil {
			continue
		}
		var hc *histChunk
		for off := 0; off < histChunkLen; off++ {
			if v := oc[off].Load(); v != 0 {
				if hc == nil {
					hc = h.chunk(ci)
				}
				hc[off].Add(v)
			}
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	h.raiseMax(o.max.Load())
}

// HistBuf is a single-goroutine front buffer for a Hist. An engine's
// hot loop records into it with plain stores — no atomic adds, no CAS
// on a histogram other workers share — and flushes it into the Hist on
// its own cadence. It buffers the exact [0, 128) buckets, where almost
// every waiting time of a stable network falls; their count, sum and
// max follow from the bucket counts at flush time. Rarer values ≥ 128
// go straight to the Hist. After FlushTo the Hist holds exactly what
// direct Record calls would have left. The zero value is an empty
// buffer.
type HistBuf struct {
	counts [histLinearMax]int64
}

// Record folds one observation into the buffer, or into h when it is
// ≥ 128 or negative (Hist.Record clamps negative values to zero).
func (b *HistBuf) Record(h *Hist, v int64) {
	if uint64(v) >= histLinearMax {
		h.Record(v)
		return
	}
	b.counts[v]++
}

// FlushTo adds the buffered observations to h and empties the buffer.
// Flushing an empty buffer does nothing.
func (b *HistBuf) FlushTo(h *Hist) {
	var n, sum, top int64
	for ci := 0; ci < histLinearMax/histChunkLen; ci++ {
		var hc *histChunk
		for off, c := range b.counts[ci*histChunkLen : (ci+1)*histChunkLen] {
			if c == 0 {
				continue
			}
			if hc == nil {
				hc = h.chunk(ci)
			}
			hc[off].Add(c)
			v := int64(ci*histChunkLen + off)
			n += c
			sum += c * v
			top = v
		}
	}
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(sum)
	h.raiseMax(top)
	clear(b.counts[:])
}

// HistBucket is one non-empty bucket of a snapshot: all recorded values
// v with Lo ≤ v ≤ Hi.
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time read of a Hist.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Mean    float64      `json:"mean"`
	Max     int64        `json:"max"`
	P50     float64      `json:"p50"`
	P90     float64      `json:"p90"`
	P99     float64      `json:"p99"`
	P999    float64      `json:"p999"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot reads the histogram: counts, exact mean and max, the
// standard quantiles, and the non-empty buckets in ascending order.
func (h *Hist) Snapshot() HistSnapshot {
	qs := h.Quantiles(0.50, 0.90, 0.99, 0.999)
	s := HistSnapshot{
		Count: h.count.Load(),
		Mean:  h.Mean(),
		Max:   h.max.Load(),
		P50:   qs[0], P90: qs[1], P99: qs[2], P999: qs[3],
	}
	for ci := 0; ci < histChunks; ci++ {
		c := h.chunks[ci].Load()
		if c == nil {
			continue
		}
		for off := 0; off < histChunkLen; off++ {
			if v := c[off].Load(); v != 0 {
				idx := ci*histChunkLen + off
				s.Buckets = append(s.Buckets, HistBucket{
					Lo: histBucketLo(idx), Hi: histBucketHi(idx), Count: v,
				})
			}
		}
	}
	return s
}

// Register exposes the histogram's read-outs in a metrics registry:
// name.count, name.mean, name.max, name.p50/.p90/.p99/.p999.
func (h *Hist) Register(reg *Registry, name string) {
	reg.Func(name+".count", func() float64 { return float64(h.N()) })
	reg.Func(name+".mean", h.Mean)
	reg.Func(name+".max", func() float64 { return float64(h.Max()) })
	reg.Func(name+".p50", func() float64 { return h.Quantile(0.50) })
	reg.Func(name+".p90", func() float64 { return h.Quantile(0.90) })
	reg.Func(name+".p99", func() float64 { return h.Quantile(0.99) })
	reg.Func(name+".p999", func() float64 { return h.Quantile(0.999) })
}

// HistSet groups the live waiting-time histograms of a simulation run
// (or many runs sharing one SimProbe): one total-wait histogram plus
// one per stage, grown on demand as engines of different depths attach.
// Safe for concurrent use.
type HistSet struct {
	total Hist

	mu     sync.Mutex
	stages []*Hist
	reg    *Registry
	prefix string
}

// NewHistSet returns an empty set.
func NewHistSet() *HistSet { return &HistSet{} }

// Total returns the end-to-end total-wait histogram.
func (s *HistSet) Total() *Hist { return &s.total }

// Stages returns the histograms of stages 1…n, growing the set as
// needed; the returned slice is the caller's to keep for a run's hot
// loop. Newly created stages are registered in the set's registry when
// Register was called earlier.
func (s *HistSet) Stages(n int) []*Hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.stages) < n {
		h := &Hist{}
		s.stages = append(s.stages, h)
		if s.reg != nil {
			h.Register(s.reg, stageMetricName(s.prefix, len(s.stages)))
		}
	}
	return append([]*Hist(nil), s.stages[:n]...)
}

// NumStages returns the number of per-stage histograms created so far.
func (s *HistSet) NumStages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.stages)
}

// Register exposes the set in a metrics registry under prefix
// (".total", ".stage1", ".stage2", …); "" means "wait". Stages created
// later register themselves as they appear.
func (s *HistSet) Register(reg *Registry, prefix string) {
	if prefix == "" {
		prefix = "wait"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg, s.prefix = reg, prefix
	s.total.Register(reg, prefix+".total")
	for i, h := range s.stages {
		h.Register(reg, stageMetricName(prefix, i+1))
	}
}

func stageMetricName(prefix string, stage int) string {
	if prefix == "" {
		prefix = "wait"
	}
	return prefix + ".stage" + strconv.Itoa(stage)
}
