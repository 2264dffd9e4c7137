package obs

import (
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 800 {
		t.Fatalf("counter %d, want 800", c.Load())
	}
	if g.Load() != 0 {
		t.Fatalf("gauge settled at %d, want 0", g.Load())
	}
	if g.High() < 1 || g.High() > 8 {
		t.Fatalf("gauge high water %d out of [1,8]", g.High())
	}
	g.Set(42)
	if g.Load() != 42 || g.High() != 42 {
		t.Fatalf("set: load %d high %d", g.Load(), g.High())
	}
}

// fakeClock steps a Meter through synthetic seconds.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (f *fakeClock) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

func TestMeterWindowedRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	m := &Meter{Now: clk.now}
	if m.Rate() != 0 {
		t.Fatal("empty meter must rate 0")
	}
	// 3 seconds at 100/s.
	for s := 0; s < 3; s++ {
		m.Add(100)
		clk.advance(time.Second)
	}
	if got := m.Rate(); got != 100 {
		t.Fatalf("steady rate %g, want 100", got)
	}
	if m.Total() != 300 {
		t.Fatalf("total %d, want 300", m.Total())
	}
	// Go idle: the windowed rate decays to zero while the total stays.
	clk.advance((meterWindow + 2) * time.Second)
	if got := m.Rate(); got != 0 {
		t.Fatalf("idle rate %g, want 0", got)
	}
	if m.Total() != 300 {
		t.Fatalf("idle total %d, want 300", m.Total())
	}
	// A new burst is measured over the window, not the whole lifetime —
	// this is the property the old cumulative sweep counters lacked.
	for s := 0; s < meterWindow; s++ {
		m.Add(50)
		clk.advance(time.Second)
	}
	if got := m.Rate(); got != 50 {
		t.Fatalf("post-idle rate %g, want 50", got)
	}
}

// TestMeterFirstSecondExcluded pins the two exclusion rules around a
// burst: no rate until a full second of history exists, and the
// in-progress second never extrapolates into the read-out.
func TestMeterFirstSecondExcluded(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2_000_000, 0)}
	m := &Meter{Now: clk.now}
	m.Add(100)
	if got := m.Rate(); got != 0 {
		t.Fatalf("rate within the first second %g, want 0", got)
	}
	clk.advance(500 * time.Millisecond)
	if got := m.Rate(); got != 0 {
		t.Fatalf("rate at +0.5s %g, want 0 (first second incomplete)", got)
	}
	clk.advance(500 * time.Millisecond)
	if got := m.Rate(); got != 100 {
		t.Fatalf("rate after the first complete second %g, want 100", got)
	}
	// A burst in the in-progress second must not move the rate.
	m.Add(9999)
	if got := m.Rate(); got != 100 {
		t.Fatalf("in-progress second leaked into rate: %g, want 100", got)
	}
}

// TestMeterIdleRingWrapStale: after an idle gap of exactly the ring
// size, the current second's bucket index collides with the stale
// burst's — the stale count must not resurface in the rate.
func TestMeterIdleRingWrapStale(t *testing.T) {
	clk := &fakeClock{t: time.Unix(3_000_000, 0)}
	m := &Meter{Now: clk.now}
	ring := int64(meterWindow + 1)
	m.Add(1000)
	// Land on the same ring slot (sec ≡ first mod ring) without any
	// intervening Add to overwrite it.
	clk.advance(time.Duration(ring) * time.Second)
	if got := m.Rate(); got != 0 {
		t.Fatalf("stale wrapped bucket leaked: rate %g, want 0", got)
	}
	// And writing through the collided slot replaces, not accumulates:
	// 50 events in one second of a 10-second window reads 5/s — not
	// 105/s, which is what folding the stale 1000 in would give.
	m.Add(50)
	clk.advance(time.Second)
	if got := m.Rate(); got != 5 {
		t.Fatalf("post-wrap rate %g, want 5 (stale count folded in?)", got)
	}
	if m.Total() != 1050 {
		t.Fatalf("total %d, want 1050", m.Total())
	}
}

// TestMeterConcurrentAddRate hammers Add while reading Rate/Total — the
// -race guard for scrapes racing the hot path.
func TestMeterConcurrentAddRate(t *testing.T) {
	m := &Meter{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Add(1)
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if m.Rate() < 0 || m.Total() < 0 {
					t.Error("negative read-out")
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestRegistryDescribe covers the exposition metadata surface.
func TestRegistryDescribe(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c")
	m := reg.Meter("m")
	m.Add(1)
	reg.Gauge("g")
	reg.Describe("g", KindGauge, "a level")
	if reg.Kind("c") != KindCounter || reg.Kind("m") != KindCounter {
		t.Fatal("Counter/Meter not described as counters")
	}
	if reg.Kind("m.per_sec") != KindGauge {
		t.Fatal("derived rate must stay a gauge")
	}
	if reg.Kind("never.seen") != KindGauge {
		t.Fatal("undescribed names must default to gauge")
	}
	if reg.HelpFor("g") != "a level" || reg.HelpFor("c") != "" {
		t.Fatal("help strings wrong")
	}
}

// TestRegistrySnapshotDuringRegistration races Snapshot/Names and the
// OpenMetrics rendering against concurrent registration — the scrape-during-startup path.
func TestRegistrySnapshotDuringRegistration(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := "dyn." + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
			reg.Counter(name).Inc()
			reg.Describe(name, KindCounter, "dynamic")
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reg.Snapshot()
				reg.Names()
				var sb strings.Builder
				if err := WriteOpenMetrics(&sb, reg, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestRegistryTextAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("points.done")
	g := reg.Gauge("inflight")
	c.Add(7)
	g.Set(3)
	reg.Func("custom.ratio", func() float64 { return 0.5 })

	snap := reg.Snapshot()
	if snap["points.done"] != 7 || snap["inflight"] != 3 || snap["inflight.high"] != 3 || snap["custom.ratio"] != 0.5 {
		t.Fatalf("snapshot %v", snap)
	}
	var sb strings.Builder
	if err := WriteOpenMetrics(&sb, reg, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"banyan_points_done_total 7\n", "banyan_inflight 3\n", "banyan_custom_ratio 0.5\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("text output missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRuntimeHeapIsLiveHeap: proc.heap_bytes is the heap the last
// collection marked live, not the allocated slots that still hold dead
// objects the collector has yet to free.
func TestRuntimeHeapIsLiveHeap(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntimeMetrics(reg)
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	for try := 0; try < 10; try++ {
		runtime.GC()
		metrics.Read(s)
		want, cycles := float64(s[0].Value.Uint64()), s[1].Value.Uint64()
		got := reg.Snapshot()["proc.heap_bytes"]
		metrics.Read(s)
		if s[1].Value.Uint64() != cycles {
			continue // a collection ran between the reads
		}
		if got != want {
			t.Fatalf("proc.heap_bytes %g, want the live heap %g", got, want)
		}
		return
	}
	t.Fatal("a collection ran between the reads on every try")
}

func TestSimProbeAggregation(t *testing.T) {
	p := NewSimProbe()
	p.AddCycles(1000)
	p.Record(RunSample{
		Cycles: 24, BlockPulls: 3, FreeListHits: 90, SlotAllocs: 10,
		Messages: 500, MaxInFlight: 40, StageHighWater: []int64{4, 7, 2},
	})
	p.Record(RunSample{
		Cycles: 512, BlockPulls: 1, FreeListHits: 10, SlotAllocs: 90,
		Messages: 100, MaxInFlight: 15, StageHighWater: []int64{9, 1, 3, 8},
	})
	s := p.Snapshot()
	if s.Runs != 2 || s.Cycles != 1536 || s.BlockPulls != 4 || s.Messages != 600 {
		t.Fatalf("aggregate %+v", s)
	}
	if s.FreeListRate != 0.5 {
		t.Fatalf("free-list rate %g, want 0.5", s.FreeListRate)
	}
	if s.MaxInFlight != 40 {
		t.Fatalf("max in flight %d, want 40", s.MaxInFlight)
	}
	want := []int64{9, 7, 3, 8}
	if len(s.StageHighWater) != len(want) {
		t.Fatalf("stage high water %v, want %v", s.StageHighWater, want)
	}
	for i := range want {
		if s.StageHighWater[i] != want[i] {
			t.Fatalf("stage high water %v, want %v", s.StageHighWater, want)
		}
	}

	reg := NewRegistry()
	p.Register(reg)
	snap := reg.Snapshot()
	if snap["sim.runs"] != 2 || snap["sim.stage_high_water_max"] != 9 {
		t.Fatalf("registry view %v", snap)
	}
	var sb strings.Builder
	if err := p.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "free-list hit rate 50.0%") {
		t.Fatalf("summary missing hit rate:\n%s", sb.String())
	}
}
