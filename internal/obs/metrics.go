package obs

import (
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic count. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomically settable level with a high-water mark. The
// zero value is ready to use.
type Gauge struct {
	v  atomic.Int64
	hw atomic.Int64
}

// Set stores the current level and advances the high-water mark.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	g.max(v)
}

// Add adjusts the level by delta and advances the high-water mark.
func (g *Gauge) Add(delta int64) { g.max(g.v.Add(delta)) }

func (g *Gauge) max(v int64) {
	for {
		cur := g.hw.Load()
		if v <= cur || g.hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// High returns the largest level ever observed.
func (g *Gauge) High() int64 { return g.hw.Load() }

// meterWindow is the trailing span, in seconds, a Meter's Rate covers.
const meterWindow = 10

// Meter accumulates a count and reports its rate over a trailing
// window of complete seconds, so the read-out tracks *current*
// throughput instead of averaging over the whole (possibly mostly
// idle) process lifetime. The zero value is ready to use.
type Meter struct {
	// Now replaces time.Now for tests; nil means time.Now.
	Now func() time.Time

	mu    sync.Mutex
	total int64
	// One bucket per second over the window plus the in-progress
	// second, addressed by unix second modulo the ring size.
	buckets [meterWindow + 1]int64
	secs    [meterWindow + 1]int64
	first   int64 // unix second of the first Add; 0 = never
}

func (m *Meter) now() time.Time {
	if m.Now != nil {
		return m.Now()
	}
	return time.Now()
}

// Add records n events at the current time.
func (m *Meter) Add(n int64) {
	sec := m.now().Unix()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.first == 0 {
		m.first = sec
	}
	i := sec % int64(len(m.buckets))
	if m.secs[i] != sec {
		m.secs[i] = sec
		m.buckets[i] = 0
	}
	m.buckets[i] += n
	m.total += n
}

// Total returns the cumulative count.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Rate returns events per second over the trailing window of complete
// seconds (the in-progress second is excluded so a fresh burst does
// not extrapolate). Zero until a full second of history exists.
func (m *Meter) Rate() float64 {
	sec := m.now().Unix()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.first == 0 || sec <= m.first {
		return 0
	}
	span := sec - m.first
	if span > meterWindow {
		span = meterWindow
	}
	var sum int64
	for i := range m.buckets {
		if s := m.secs[i]; s >= sec-span && s < sec {
			sum += m.buckets[i]
		}
	}
	return float64(sum) / float64(span)
}

// MetricKind classifies a registered read-out for exposition formats
// that care (OpenMetrics): a counter is cumulative and monotone, a
// gauge is a level that can go either way. The registry's own text
// format ignores the distinction.
type MetricKind int

const (
	KindGauge MetricKind = iota
	KindCounter
)

// Registry is an ordered set of named metric read-outs. Every metric
// is registered as a func() float64, so counters, gauges, meters and
// derived values (rates, ratios, ETAs) all read out uniformly.
type Registry struct {
	mu    sync.Mutex
	order []string
	vars  map[string]func() float64
	kinds map[string]MetricKind
	help  map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		vars:  make(map[string]func() float64),
		kinds: make(map[string]MetricKind),
		help:  make(map[string]string),
	}
}

// Func registers a named read-out. Re-registering a name replaces it.
// Read-outs default to gauge semantics; Describe upgrades them.
func (r *Registry) Func(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.vars[name]; !ok {
		r.order = append(r.order, name)
	}
	r.vars[name] = f
}

// Describe records exposition metadata for a registered (or about to be
// registered) name: its kind and a one-line help string. Names never
// described expose as help-less gauges.
func (r *Registry) Describe(name string, kind MetricKind, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.kinds[name] = kind
	if help != "" {
		r.help[name] = help
	}
}

// Kind returns the described kind of name (KindGauge when never
// described).
func (r *Registry) Kind(name string) MetricKind {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[name]
}

// HelpFor returns the described help string of name ("" when none).
func (r *Registry) HelpFor(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// Counter creates, registers and returns a counter.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.Func(name, func() float64 { return float64(c.Load()) })
	r.Describe(name, KindCounter, "")
	return c
}

// Gauge creates and registers a gauge under name (current level) and
// name+".high" (high-water mark).
func (r *Registry) Gauge(name string) *Gauge {
	g := &Gauge{}
	r.Func(name, func() float64 { return float64(g.Load()) })
	r.Func(name+".high", func() float64 { return float64(g.High()) })
	return g
}

// Meter creates and registers a meter under name (cumulative total)
// and name+".per_sec" (windowed rate).
func (r *Registry) Meter(name string) *Meter {
	m := &Meter{}
	r.Func(name, func() float64 { return float64(m.Total()) })
	r.Describe(name, KindCounter, "")
	r.Func(name+".per_sec", m.Rate)
	return m
}

// Names returns the registered names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Snapshot evaluates every registered read-out.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	vars := make([]func() float64, len(names))
	for i, n := range names {
		vars[i] = r.vars[n]
	}
	r.mu.Unlock()
	out := make(map[string]float64, len(names))
	for i, n := range names {
		out[n] = vars[i]()
	}
	return out
}

// RegisterRuntimeMetrics exposes a small set of process-level read-outs
// under the proc.* namespace — goroutines, live heap, cumulative
// allocations, GC cycles and user CPU seconds — so any binary serving a
// registry (an engine, a runner, a future shard worker) is scrapeable as
// a process, not just as a simulation. Each read-out samples
// runtime/metrics on demand; the calls are cheap and never perturb
// simulated numbers. The live heap and user CPU seconds move only when
// a garbage collection runs.
func RegisterRuntimeMetrics(reg *Registry) {
	read := func(key string) func() float64 {
		return func() float64 {
			s := []metrics.Sample{{Name: key}}
			metrics.Read(s)
			switch s[0].Value.Kind() {
			case metrics.KindUint64:
				return float64(s[0].Value.Uint64())
			case metrics.KindFloat64:
				return s[0].Value.Float64()
			}
			return 0
		}
	}
	for _, m := range []struct {
		name, key, help string
		kind            MetricKind
	}{
		{"proc.goroutines", "/sched/goroutines:goroutines", "live goroutines", KindGauge},
		{"proc.heap_bytes", "/gc/heap/live:bytes", "bytes of heap objects the last GC marked live", KindGauge},
		{"proc.alloc_bytes", "/gc/heap/allocs:bytes", "cumulative bytes allocated on the heap", KindCounter},
		{"proc.gc_cycles", "/gc/cycles/total:gc-cycles", "completed GC cycles", KindCounter},
		{"proc.cpu_user_seconds", "/cpu/classes/user:cpu-seconds", "estimated user-goroutine CPU seconds; advances only when a GC runs", KindCounter},
	} {
		reg.Func(m.name, read(m.key))
		reg.Describe(m.name, m.kind, m.help)
	}
}
