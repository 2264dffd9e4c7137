package simnet

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"banyan/internal/obs"
)

// TestCycleBucketsSpareRetention is the regression test for the spare
// free-list leak: recycling a peak-sized bucket from a saturated cycle
// must release it to the GC, not pin it in the spare list for the rest
// of the run, and the spare list itself stays bounded no matter how many
// buckets a run recycles.
func TestCycleBucketsSpareRetention(t *testing.T) {
	cb := newCycleBuckets()

	// An oversized bucket (capacity past maxSpareBucketCap) is dropped.
	big := make([]int32, 0, maxSpareBucketCap+1)
	cb.recycle(big)
	if len(cb.spare) != 0 {
		t.Fatalf("oversized bucket retained: spare len %d", len(cb.spare))
	}

	// Zero-capacity slices are ignored too (nothing to reuse).
	cb.recycle(nil)
	if len(cb.spare) != 0 {
		t.Fatal("nil bucket retained")
	}

	// The spare list is capped at maxSpareBuckets entries.
	for i := 0; i < 3*maxSpareBuckets; i++ {
		cb.recycle(make([]int32, 0, 16))
	}
	if len(cb.spare) != maxSpareBuckets {
		t.Fatalf("spare list holds %d buckets, cap is %d", len(cb.spare), maxSpareBuckets)
	}

	// push draws from the spare list instead of allocating.
	before := len(cb.spare)
	cb.push(5, 42)
	if len(cb.spare) != before-1 {
		t.Fatalf("push did not consume a spare bucket (%d -> %d)", before, len(cb.spare))
	}
	if got := cb.take(5); len(got) != 1 || got[0] != 42 {
		t.Fatalf("take(5) = %v, want [42]", got)
	}
}

// TestCycleBucketsGrowPreservesSchedule: growing the ring mid-run keeps
// every scheduled slot in its cycle, in push order.
func TestCycleBucketsGrowPreservesSchedule(t *testing.T) {
	cb := newCycleBuckets()
	// Fill several cycles inside the initial 64-cycle window…
	for c := int64(0); c < 10; c++ {
		for v := int32(0); v < 3; v++ {
			cb.push(c, 10*int32(c)+v)
		}
	}
	// …then push far enough ahead to force two doublings.
	cb.push(200, 999)
	for c := int64(0); c < 10; c++ {
		got := cb.take(c)
		if len(got) != 3 {
			t.Fatalf("cycle %d: %v, want 3 entries", c, got)
		}
		for v := int32(0); v < 3; v++ {
			if got[v] != 10*int32(c)+v {
				t.Fatalf("cycle %d: %v out of push order", c, got)
			}
		}
		cb.recycle(got)
	}
	if got := cb.take(200); len(got) != 1 || got[0] != 999 {
		t.Fatalf("take(200) = %v, want [999]", got)
	}
}

// TestKringGrowTake: the kernel's chunked ring preserves cycle
// assignment and push order across chunk boundaries and growth, counts
// its population exactly, and hands a drained chunk to the next push so
// the steady state does not re-allocate.
func TestKringGrowTake(t *testing.T) {
	var r kring
	r.reset(3)
	// Eight cycles of seven messages each: every cell spans three chunks,
	// the last part-filled, and the cells' chunks interleave in data.
	for v := int32(0); v < 7; v++ {
		for c := int64(0); c < 8; c++ {
			r.push(c, 100*int32(c)+v)
		}
	}
	r.push(500, 7) // forces re-homing of [floor, floor+64)
	if len(r.cells) <= 500-64 {
		t.Fatalf("ring of %d cells did not grow to hold cycle 500", len(r.cells))
	}
	if r.count != 57 {
		t.Fatalf("count = %d, want 57", r.count)
	}
	chunks := len(r.next)
	if want := 8*3 + 1; chunks != want {
		t.Fatalf("%d chunks linked, want %d", chunks, want)
	}
	batch := make([]int32, 0, 8)
	for c := int64(0); c < 8; c++ {
		batch = r.take(c, batch[:0])
		if len(batch) != 7 {
			t.Fatalf("cycle %d: %v, want 7 entries", c, batch)
		}
		for v := int32(0); v < 7; v++ {
			if batch[v] != 100*int32(c)+v {
				t.Fatalf("cycle %d: %v out of push order", c, batch)
			}
		}
	}
	if batch = r.take(500, batch[:0]); len(batch) != 1 || batch[0] != 7 {
		t.Fatalf("take(500) = %v, want [7]", batch)
	}
	if r.count != 0 {
		t.Fatalf("count = %d after draining, want 0", r.count)
	}
	if len(r.free) != chunks {
		t.Fatalf("%d of %d chunks back on the free list after draining", len(r.free), chunks)
	}

	// The next push reuses the chunk drained last (cycle 500's), and a
	// refilled ring links no new chunk.
	last := r.free[len(r.free)-1]
	r.push(501, 9)
	if c := r.cells[501&r.mask]; c.head != last || r.data[c.head*r.chunk] != 9 {
		t.Fatalf("push into cycle 501 took chunk %d, want the last drained %d", c.head, last)
	}
	for v := int32(0); v < 3*int32(chunks-1); v++ {
		r.push(502+int64(v%8), v)
	}
	if len(r.next) != chunks || len(r.free) != 0 {
		t.Fatalf("refill linked new chunks: %d chunks, %d free", len(r.next), len(r.free))
	}
}

// TestArenaReleaseRetentionCaps: an arena that grew pathologically large
// during a saturated run drops the oversized scratch when it is
// released, while ordinarily sized scratch is kept.
func TestArenaReleaseRetentionCaps(t *testing.T) {
	a := new(arena)
	a.msl = make([]mrec, maxRetainSlots+1)
	a.waits = make([]int32, maxRetainWaits+1)
	a.batch = make([]int32, 0, maxRetainBatch+1)
	a.free = make([]int64, maxRetainPorts+1)
	a.blkT = make([]int32, 0, maxRetainBlk+1)
	a.rings = []kring{
		{cells: make([]kcell, 2*maxRetainRingCycles), mask: 2*maxRetainRingCycles - 1},
		{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan+1)},
		{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan)},
	}
	a.rel = kring{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan+1)}
	// The cycle loop's scratch.
	a.cmsl = make([]cycleMsg, maxRetainSlots+1)
	a.queues = make([]cycleQueue, maxRetainPorts+1)
	a.busy = make([]uint64, 8)
	a.qstore = [][]int32{make([]int32, maxRetainQueueStore+1), make([]int32, maxRetainQueueStore)}
	a.parked = make([]int32, maxRetainPorts+1)
	a.parkBits = make([]uint64, 8)
	a.held = make([]int32, 0, maxRetainBatch+1)
	a.buffered = make([]int32, 0, maxRetainBatch+1)
	a.delivery = [2][]int32{make([]int32, 0, maxRetainBatch+1), make([]int32, 0, maxRetainBatch+1)}
	// A probed run's scratch.
	a.probe = probeScratch{
		hbuf: make([]obs.HistBuf, maxRetainHistBufs+1),
		spans: spanSlab{
			sampled: make([]uint64, bitmapWords(maxRetainSlots)+1),
			stages:  make([]obs.StageSpan, maxRetainSpanStages+1),
		},
		sat: [][]bool{make([]bool, maxRetainPorts/2), make([]bool, maxRetainPorts/2+1)},
	}
	a.release()
	if a.msl != nil || a.waits != nil || a.batch != nil || a.free != nil || a.blkT != nil {
		t.Fatal("release retained scratch past the caps")
	}
	if a.rings[0].cells != nil || a.rings[1].data != nil || a.rel.data != nil {
		t.Fatal("release retained an oversized ring")
	}
	if a.rings[2].data == nil {
		t.Fatal("release dropped a ring at the span cap")
	}
	if a.cmsl != nil || a.queues != nil || a.busy != nil || a.qstore[0] != nil || a.parked != nil ||
		a.parkBits != nil || a.held != nil || a.buffered != nil || a.delivery[0] != nil || a.delivery[1] != nil {
		t.Fatal("release retained cycle-loop scratch past the caps")
	}
	if a.qstore[1] == nil {
		t.Fatal("release dropped a queue store at the cap")
	}
	if a.probe.hbuf != nil || a.probe.spans.sampled != nil || a.probe.spans.stages != nil || a.probe.sat != nil {
		t.Fatal("release retained probe scratch past the caps")
	}

	b := new(arena)
	b.msl = make([]mrec, 256)
	b.batch = make([]int32, 0, 1024)
	b.cmsl = make([]cycleMsg, 256)
	b.queues = make([]cycleQueue, 2048)
	b.qstore = [][]int32{make([]int32, 8192)}
	b.held = make([]int32, 0, 1024)
	b.probe = probeScratch{hbuf: make([]obs.HistBuf, 13),
		spans: spanSlab{sampled: make([]uint64, 4), stages: make([]obs.StageSpan, 1024)},
		sat:   [][]bool{make([]bool, maxRetainPorts/2), make([]bool, maxRetainPorts/2)}}
	b.release()
	if len(b.msl) != 256 || cap(b.batch) != 1024 {
		t.Fatal("release dropped ordinarily sized scratch")
	}
	if len(b.cmsl) != 256 || len(b.queues) != 2048 || len(b.qstore[0]) != 8192 || cap(b.held) != 1024 {
		t.Fatal("release dropped ordinarily sized cycle-loop scratch")
	}
	if len(b.probe.hbuf) != 13 || len(b.probe.spans.sampled) != 4 || len(b.probe.spans.stages) != 1024 || b.probe.sat == nil {
		t.Fatal("release dropped ordinarily sized probe scratch")
	}
}

// TestProbeScratchReusesWarmArena: a probed run keeps its histogram
// buffers and its open spans' bitset and stage entries in the arena, so
// the next probed run on the same arena — the kernel's or the cycle
// loop's — reuses them instead of allocating them again.
func TestProbeScratchReusesWarmArena(t *testing.T) {
	base := Config{K: 2, Stages: 4, P: 0.5, Cycles: 3000, Warmup: 200, Seed: 8}
	for _, e := range []Engine{Fast, Literal} {
		t.Run(e.String(), func(t *testing.T) {
			a := new(arena)
			probe := obs.NewSimProbe()
			probe.Hists = obs.NewHistSet()
			probe.Tracer = obs.NewTracer(4, 1<<10)
			run := func() {
				cfg := base
				cfg.Probe = probe
				if _, err := runEngine(context.Background(), e, &cfg, nil, a); err != nil {
					t.Fatal(err)
				}
			}
			mem := func() []unsafe.Pointer {
				return []unsafe.Pointer{
					unsafe.Pointer(unsafe.SliceData(a.probe.hbuf)),
					unsafe.Pointer(unsafe.SliceData(a.probe.spans.sampled)),
					unsafe.Pointer(unsafe.SliceData(a.probe.spans.stages)),
				}
			}
			run()
			first := mem()
			if len(a.probe.hbuf) != base.Stages+1 || slices.Contains(first, nil) {
				t.Fatalf("first run left %d histogram buffers and span scratch %v", len(a.probe.hbuf), first)
			}
			run()
			if got := mem(); !slices.Equal(got, first) {
				t.Errorf("a warm-arena run reallocated its probe scratch: %v, was %v", got, first)
			}
		})
	}
}

// cycleCase is one cycle-loop configuration of the arena tests.
type cycleCase struct {
	name string
	e    Engine
	cfg  Config
}

// TestCycleLoopReusesWarmArena: the cycle loop's scratch lives in the
// arena, so a second run on a warm arena keeps the slot store, the wait
// table and every stage's queue store, and allocates only its result
// and per-run bookkeeping. The runs repeat one seed, so the second
// run's peak is the first one's and nothing may grow. Before the loop
// moved onto the arena, a run like this allocated thousands of times.
func TestCycleLoopReusesWarmArena(t *testing.T) {
	lit := Config{K: 2, Stages: 8, P: 0.5, BufferCap: 4, Cycles: 2000, Warmup: 200, Seed: 21,
		TrackStageWaits: true}
	blk := lit
	blk.BufferCap = 0
	blk.StageBuffers = []int{4, 4, 4, 4, 4, 4, 4, 4}
	for _, c := range []cycleCase{{"literal", Literal, lit}, {"blocking", Graph, blk}} {
		t.Run(c.name, func(t *testing.T) {
			a := new(arena)
			run := func() {
				cfg := c.cfg
				if _, err := runEngine(context.Background(), c.e, &cfg, nil, a); err != nil {
					t.Fatal(err)
				}
			}
			mem := func() []unsafe.Pointer {
				m := []unsafe.Pointer{unsafe.Pointer(unsafe.SliceData(a.cmsl)), unsafe.Pointer(unsafe.SliceData(a.waits))}
				for _, st := range a.qstore {
					m = append(m, unsafe.Pointer(unsafe.SliceData(st)))
				}
				return m
			}
			run()
			first := mem()
			if len(first) != 2+c.cfg.Stages || slices.Contains(first, nil) {
				t.Fatalf("first run left no slot store, wait table or queue store: %v", first)
			}
			if allocs := testing.AllocsPerRun(2, run); allocs > 64 {
				t.Errorf("a warm-arena run allocates %.0f times, want at most 64", allocs)
			}
			if got := mem(); !slices.Equal(got, first) {
				t.Errorf("a warm-arena run regrew its scratch: %v, was %v", got, first)
			}
		})
	}
}

// TestCycleQueueCapsAgree: a queue cap that is never reached changes
// nothing, so an uncapped ring and a capped one grow alike. Both run
// one trace with a hot spot whose last-stage queue nears the cap (57
// of 64 at this seed), so its ring doubles up to the cap on the way;
// the results must be bit-identical.
func TestCycleQueueCapsAgree(t *testing.T) {
	const limit = 64
	base := Config{K: 2, Stages: 6, P: 0.5, HotModule: 0.015, Cycles: 6000, Warmup: 200, Seed: 8,
		TrackOccupancy: true, TrackStageWaits: true}
	tr, err := GenerateTrace(&base)
	if err != nil {
		t.Fatal(err)
	}
	uncapped, capped := base, base
	capped.BufferCap = limit
	mixed, allCapped := base, base
	for s := 0; s < base.Stages; s++ {
		mixed.StageBuffers = append(mixed.StageBuffers, limit*(s%2))
		allCapped.StageBuffers = append(allCapped.StageBuffers, limit)
	}
	for _, pair := range [][2]cycleCase{
		{{"literal/uncapped", Literal, uncapped}, {"literal/capped", Literal, capped}},
		{{"blocking/mixed", Graph, mixed}, {"blocking/capped", Graph, allCapped}},
	} {
		var res [2]*Result
		for i, c := range pair {
			cfg := c.cfg
			if res[i], err = RunEngine(context.Background(), c.e, &cfg, tr.Source()); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		// MaxQueueDepth counts the message in service too, so the
		// deepest queue held at least deepest-1 messages; past 16 its
		// ring doubled three times.
		deepest := slices.Max(res[1].MaxQueueDepth)
		if deepest-1 <= 4*queueInit || deepest >= limit {
			t.Fatalf("%s: deepest queue held %d, want rings doubled three times and the cap %d never reached",
				pair[1].name, deepest, limit)
		}
		if res[0].Dropped != 0 || res[1].Dropped != 0 || res[1].BlockedCycles != 0 {
			t.Fatalf("%s: a cap was reached", pair[1].name)
		}
		if !reflect.DeepEqual(res[0], res[1]) {
			t.Errorf("%s and %s differ:\n%+v\n%+v", pair[0].name, pair[1].name, res[0], res[1])
		}
	}
}

// TestArenaKeepsWideNetworkBlockScratch: the message cap keeps a wide
// network's trace blocks far below the block retention cap, so the arena
// keeps the scratch it lent and the next replication's stream fills the
// same arrays. Cut only at 1024 cycles, this 4096-row network's single
// block would hold about 1.7M messages, past the cap, and every
// replication would regrow it.
func TestArenaKeepsWideNetworkBlockScratch(t *testing.T) {
	cfg := Config{K: 2, Stages: 12, P: 0.85, Cycles: 400, Warmup: 100, Seed: 5}
	a := new(arena)
	var data *int32
	for rep := 0; rep < 2; rep++ {
		s, err := NewTraceStream(&cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.lendBlockScratch(s)
		for {
			blk, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if blk == nil {
				break
			}
		}
		a.harvestBlockScratch(s)
		if c := cap(a.blkT); c == 0 || c > maxRetainBlk {
			t.Fatalf("replication %d: block scratch of capacity %d, release keeps at most %d", rep, c, maxRetainBlk)
		}
		if rep == 1 && unsafe.SliceData(a.blkT) != data {
			t.Fatal("second replication regrew the lent block scratch")
		}
		data = unsafe.SliceData(a.blkT)
	}
}

// wideRun runs the benchmark's 4096-row deep point (k=2, n=12, p=0.85,
// 450 measured cycles), or its first third when short, on a, and trims
// a as release would.
func wideRun(t *testing.T, a *arena, seed uint64, short bool) {
	t.Helper()
	cfg := Config{K: 2, Stages: 12, P: 0.85, Cycles: 450, Warmup: 100, Seed: seed}
	if short {
		cfg.Cycles, cfg.Warmup = 150, 50
	}
	s, err := NewTraceStream(&cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.lendBlockScratch(s)
	if _, err := runKernel(context.Background(), &cfg, s, a, nil); err != nil {
		t.Fatal(err)
	}
	a.harvestBlockScratch(s)
	a.trim()
}

// TestArenaKeepsWideNetworkRings: a wide network's schedule rings hold
// only the chunks its live cells fill, far below the retention cap, so
// the arena keeps them and the next replication schedules into the same
// storage. The replication repeats its seed, so its peak is the first
// one's and nothing may grow. With a whole-batch bucket per cell, every
// ring of this 4096-row network outgrew the cap and was regrown by
// every run.
func TestArenaKeepsWideNetworkRings(t *testing.T) {
	a := new(arena)
	wideRun(t, a, 5, true)
	if len(a.rings) != 11 {
		t.Fatalf("%d rings after a 12-stage run, want 11", len(a.rings))
	}
	type ringMem struct {
		cells *kcell
		data  *int32
		span  int
	}
	mem := make([]ringMem, len(a.rings))
	for i := range a.rings {
		r := &a.rings[i]
		if span := r.spanCapacity(); span == 0 || span > maxRetainRingSpan/4 {
			t.Fatalf("ring %d retains %d slots, want between 1 and %d", i, span, maxRetainRingSpan/4)
		}
		mem[i] = ringMem{unsafe.SliceData(r.cells), unsafe.SliceData(r.data), r.spanCapacity()}
	}
	wideRun(t, a, 5, true)
	for i := range a.rings {
		r := &a.rings[i]
		if got := (ringMem{unsafe.SliceData(r.cells), unsafe.SliceData(r.data), r.spanCapacity()}); got != mem[i] {
			t.Fatalf("ring %d regrew on the second replication: %+v, was %+v", i, got, mem[i])
		}
	}
}

// TestArenaKeepsWideNetworkFreeList: the kernel's free list is threaded
// through the free slot records, so a run that fills a slot store to
// the retention cap keeps the store across release, grows no free-list
// array beside it, and the next replication reuses the store as is.
// Grown by append instead, a free-list array overshot the cap on this
// 4096-row network, whose in-flight population nears the cap, and was
// dropped after most runs (at this seed: 111,084 slots used, a free
// list of capacity 139,264). On two or more cores the run splits its
// stages over two slot stores (pipeline.go), and the helper's store is
// the one that fills.
func TestArenaKeepsWideNetworkFreeList(t *testing.T) {
	a := new(arena)
	wideRun(t, a, 2, false)
	stores := []*groupScratch{&a.groupScratch, &a.helper}
	var full *groupScratch
	for i, g := range stores {
		if c := cap(g.freeSlots); c != 0 {
			t.Fatalf("group %d: the kernel grew a free-list array of capacity %d", i, c)
		}
		if len(g.msl) == maxRetainSlots {
			full = g
		}
	}
	if full == nil {
		t.Fatalf("slot stores of %d and %d slots, want the run to fill one to the cap %d",
			len(a.msl), len(a.helper.msl), maxRetainSlots)
	}
	data := unsafe.SliceData(full.msl)
	wideRun(t, a, 2, false)
	if unsafe.SliceData(full.msl) != data {
		t.Fatal("the next replication regrew the full slot store")
	}
}

// mallocs returns the number of heap objects the process has allocated.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// runAllocs runs one replication of cfg on engine e with an arena from
// the free list and returns the objects it allocated.
func runAllocs(e Engine, cfg Config) (uint64, error) {
	before := mallocs()
	_, err := RunEngine(context.Background(), e, &cfg, nil)
	return mallocs() - before, err
}

// arenaEngines run the two loops that keep their scratch in an arena,
// the batch kernel and the cycle loop. The graph engine runs on them
// too, but the wiring it builds for every run can allocate a few more
// objects in one run than in the next, so its count is no exact check.
var arenaEngines = []Engine{Fast, Literal}

// TestArenaSurvivesCollection: garbage collection does not empty the
// arena free list, so a replication after two collections allocates
// exactly what a warm one does. A sync.Pool, which two collections
// empty, made it start on a fresh arena and regrow every slot store,
// ring and trace block, about 80 more objects at this size. The count
// is global, so a try in which a finalizer that a collection queued
// allocated beside the run is retried.
func TestArenaSurvivesCollection(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Config{K: 2, Stages: 6, P: 0.6, Cycles: 3000, Warmup: 300, Seed: 31}
	for _, e := range arenaEngines {
		t.Run(e.String(), func(t *testing.T) {
			runAllocs(e, cfg)
			warm, err := runAllocs(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var got []uint64
			for try := 0; try < 3; try++ {
				runtime.GC()
				runtime.GC()
				n, err := runAllocs(e, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n == warm {
					return
				}
				got = append(got, n)
			}
			t.Fatalf("after two collections runs allocated %v objects, a warm run %d", got, warm)
		})
	}
}

// TestArenaReusedAcrossGoroutines: a replication on another processor
// than the one whose goroutine released the arena reuses it. A
// sync.Pool keeps a released object in the cache of the processor that
// put it, so a worker running elsewhere missed it and regrew a fresh
// arena: one benchmark count in three read 6,549 allocations per op
// instead of 1,096. The releasing goroutine spins while the other runs,
// so the two hold different processors.
func TestArenaReusedAcrossGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := Config{K: 2, Stages: 6, P: 0.6, Cycles: 3000, Warmup: 300, Seed: 32}
	for _, e := range arenaEngines {
		t.Run(e.String(), func(t *testing.T) {
			runAllocs(e, cfg)
			warm, err := runAllocs(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var n atomic.Uint64
			go func() {
				got, err := runAllocs(e, cfg)
				if err != nil {
					got = 0
				}
				n.Store(got + 1)
			}()
			for n.Load() == 0 {
			}
			if got := n.Load() - 1; got != warm {
				t.Fatalf("a run on another goroutine allocated %d objects, a warm run %d", got, warm)
			}
		})
	}
}

// listed reports the free list's length and bound.
func listed() (n int, bound int64) {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	return len(arenas.free), arenas.peak
}

// TestArenaListBound: the free list never holds more arenas than were
// ever checked out at once, also while workers check arenas out and in
// concurrently; an arena released without being checked out is trimmed
// but not listed; and an arena a cap trimmed is still reused.
func TestArenaListBound(t *testing.T) {
	const width = 5
	held := make([]*arena, width)
	for i := range held {
		held[i] = getArena()
	}
	if n, bound := listed(); bound < width || int64(n)+width > bound {
		t.Fatalf("%d arenas checked out, %d listed, bound %d", width, n, bound)
	}
	for _, a := range held {
		a.release()
	}
	n, bound := listed()
	if n < width || int64(n) > bound {
		t.Fatalf("released %d arenas: %d listed, bound %d", width, n, bound)
	}
	for range 2 * bound {
		a := new(arena)
		a.msl = make([]mrec, maxRetainSlots+1)
		a.release()
		if a.msl != nil {
			t.Fatal("release kept a slot store past its cap")
		}
	}
	if m, _ := listed(); m != n {
		t.Fatalf("arenas never checked out changed the list from %d to %d", n, m)
	}
	for round := 0; round < 3; round++ {
		for i := range held {
			held[i] = getArena()
		}
		for _, a := range held {
			a.release()
		}
		if m, b := listed(); m != n || b != bound {
			t.Fatalf("round %d: %d listed with bound %d, want %d and %d", round, m, b, n, bound)
		}
	}

	a := getArena()
	a.msl = make([]mrec, maxRetainSlots+1)
	a.release()
	if a.msl != nil {
		t.Fatal("release kept a slot store past its cap")
	}
	b := getArena()
	b.release()
	if b != a {
		t.Fatal("the arena a cap trimmed was not reused")
	}

	// Workers checking arenas out and in at once leave none checked out
	// and no more listed than the bound.
	var wg sync.WaitGroup
	for w := 0; w < 2*width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				getArena().release()
			}
		}()
	}
	wg.Wait()
	if m, b := listed(); ArenaLive() != 0 || int64(m) > b {
		t.Fatalf("after concurrent workers: %d live, %d listed, bound %d", ArenaLive(), m, b)
	}
}

// arenaAtCaps returns an arena for a run of the given stage count with
// every field at the most its retention cap keeps. The switch verdicts
// are left empty: their cap bounds the switches of all stages together,
// and they pin less than the per-port tables beside them.
func arenaAtCaps(stages int) *arena {
	a := new(arena)
	for _, g := range []*groupScratch{&a.groupScratch, &a.helper} {
		g.msl = make([]mrec, maxRetainSlots)
		g.waits = make([]int32, maxRetainWaits)
		g.freeSlots = make([]int32, 0, maxRetainSlots)
		g.batch = make([]int32, 0, maxRetainBatch)
		g.bounds = make([]int32, stages+1)
		g.svc = make([]int64, 0, maxRetainBatch)
		g.outs = make([]outcome, maxRetainBatch)
	}
	for i := range a.cross {
		a.cross[i] = crossings{
			recs:       make([]xrec, 0, maxRetainBatch),
			waits:      make([]int32, 0, maxRetainWaits),
			spans:      make([]xspan, 0, maxRetainBatch),
			spanStages: make([]obs.StageSpan, 0, maxRetainSpanStages),
		}
	}
	ring := func() kring {
		chunks := maxRetainRingSpan / ringChunk
		return kring{
			cells: make([]kcell, maxRetainRingCycles),
			mask:  maxRetainRingCycles - 1,
			data:  make([]int32, 0, maxRetainRingSpan),
			next:  make([]int32, 0, chunks),
			free:  make([]int32, 0, chunks),
			chunk: ringChunk,
		}
	}
	a.rings = make([]kring, stages-1)
	for i := range a.rings {
		a.rings[i] = ring()
	}
	a.rel = ring()
	a.free = make([]int64, maxRetainPorts)
	a.vec = make([]float64, stages)
	a.cmsl = make([]cycleMsg, maxRetainSlots)
	a.freeSlots = make([]int32, 0, maxRetainSlots)
	a.queues = make([]cycleQueue, maxRetainPorts)
	a.busy = make([]uint64, bitmapWords(maxRetainPorts))
	a.qstore = make([][]int32, stages)
	for s := range a.qstore {
		a.qstore[s] = make([]int32, maxRetainQueueStore)
	}
	a.parked = make([]int32, maxRetainPorts)
	a.parkBits = make([]uint64, bitmapWords(maxRetainPorts))
	for _, b := range []*[]int32{&a.held, &a.buffered, &a.delivery[0], &a.delivery[1]} {
		*b = make([]int32, 0, maxRetainBatch)
	}
	a.blkT = make([]int32, 0, maxRetainBlk)
	a.blkIn = make([]int32, 0, maxRetainBlk)
	a.blkDest = make([]uint32, 0, maxRetainBlk)
	a.blkSvc = make([]int16, 0, maxRetainBlk)
	a.blkMeas = make([]bool, 0, maxRetainBlk)
	a.probe.hbuf = make([]obs.HistBuf, maxRetainHistBufs)
	for _, sl := range []*spanSlab{&a.probe.spans, &a.probe.helperSpans} {
		*sl = spanSlab{
			sampled: make([]uint64, bitmapWords(maxRetainSlots)),
			handle:  make([]int32, maxRetainSlots),
			heads:   make([]spanHead, maxRetainSpanStages),
			stages:  make([]obs.StageSpan, maxRetainSpanStages),
			free:    make([]int32, 0, maxRetainSpanStages),
			stride:  1,
		}
	}
	return a
}

// retainedBytes sums the backing arrays of v's slices, following nested
// slices, arrays and structs.
func retainedBytes(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Slice:
		n = v.Cap() * int(v.Type().Elem().Size())
		if holdsSlices(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += retainedBytes(v.Index(i))
			}
		}
	case reflect.Array:
		if holdsSlices(v.Type().Elem()) {
			for i := 0; i < v.Len(); i++ {
				n += retainedBytes(v.Index(i))
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += retainedBytes(v.Field(i))
		}
	}
	return n
}

// holdsSlices reports whether a value of type t can hold a slice.
func holdsSlices(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice:
		return true
	case reflect.Array:
		return holdsSlices(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsSlices(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// emptySlices lists the slice fields of v, by path, that hold nothing.
func emptySlices(v reflect.Value, path string) []string {
	var out []string
	switch v.Kind() {
	case reflect.Slice:
		if v.Cap() == 0 {
			out = append(out, path)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = append(out, emptySlices(v.Index(i), path+"["+strconv.Itoa(i)+"]")...)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = append(out, emptySlices(v.Field(i), path+"."+v.Type().Field(i).Name)...)
		}
	}
	return out
}

// TestArenaRetainedBytes pins the worst case the arena free list
// documents: an arena with every field at its retention cap survives
// release whole and holds about 93 MiB plus 1.9 MiB per stage. Every
// slice field but the switch verdicts must be filled, so a new field
// cannot slip past the figure.
func TestArenaRetainedBytes(t *testing.T) {
	const mib = 1 << 20
	a := arenaAtCaps(8)
	if empty := emptySlices(reflect.ValueOf(a).Elem(), "arena"); !slices.Equal(empty, []string{"arena.probe.sat"}) {
		t.Fatalf("arenaAtCaps leaves slice fields empty: %v", empty)
	}
	before := retainedBytes(reflect.ValueOf(a).Elem())
	a.release()
	if after := retainedBytes(reflect.ValueOf(a).Elem()); after != before {
		t.Fatalf("release trimmed an arena at its caps: %d bytes, was %d", after, before)
	}
	perStage := retainedBytes(reflect.ValueOf(arenaAtCaps(9)).Elem()) - before
	fixed := before - 8*perStage
	t.Logf("an arena at its caps pins %.1f MiB plus %.2f MiB per stage", float64(fixed)/mib, float64(perStage)/mib)
	if fixed < 90*mib || fixed > 96*mib || 10*perStage < 18*mib || 10*perStage > 20*mib {
		t.Fatalf("an arena at its caps pins %.1f MiB plus %.2f MiB per stage; the arenas doc says about 93 and 1.9",
			float64(fixed)/mib, float64(perStage)/mib)
	}
}
