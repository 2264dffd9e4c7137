package simnet

import (
	"context"
	"testing"
	"unsafe"
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
// during a saturated run drops the oversized scratch when it returns to
// the pool, while ordinarily sized scratch is kept.
func TestArenaReleaseRetentionCaps(t *testing.T) {
	a := new(arena)
	a.msl = make([]mrec, maxRetainSlots+1)
	a.waits = make([]int16, maxRetainWaits+1)
	a.batch = make([]int32, 0, maxRetainBatch+1)
	a.free = make([]int64, maxRetainPorts+1)
	a.blkT = make([]int32, 0, maxRetainBlk+1)
	a.rings = []kring{
		{cells: make([]kcell, 2*maxRetainRingCycles), mask: 2*maxRetainRingCycles - 1},
		{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan+1)},
		{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan)},
	}
	a.rel = kring{cells: make([]kcell, 64), mask: 63, data: make([]int32, 0, maxRetainRingSpan+1)}
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

	b := new(arena)
	b.msl = make([]mrec, 256)
	b.batch = make([]int32, 0, 1024)
	b.release()
	if len(b.msl) != 256 || cap(b.batch) != 1024 {
		t.Fatal("release dropped ordinarily sized scratch")
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

// TestArenaKeepsWideNetworkFreeList: the slot free list is sized with
// the slot store, so a run that fills the store to the retention cap
// leaves a free list within the cap too, and both survive release.
// Grown by append instead, the free list overshot the cap on this
// 4096-row network, whose in-flight population nears the cap, and was
// dropped after most runs (at this seed: 111,084 slots used, a free
// list of capacity 139,264).
func TestArenaKeepsWideNetworkFreeList(t *testing.T) {
	a := new(arena)
	wideRun(t, a, 2, false)
	if len(a.msl) != maxRetainSlots {
		t.Fatalf("slot store of %d slots, want the run to fill it to the cap %d", len(a.msl), maxRetainSlots)
	}
	if c := cap(a.freeSlots); c == 0 || c > maxRetainSlots {
		t.Fatalf("free list capacity %d after release, want it kept and at most %d", c, maxRetainSlots)
	}
}
