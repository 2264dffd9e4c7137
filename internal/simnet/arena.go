package simnet

import (
	"sync"
	"sync/atomic"
)

// arenaLive counts arenas currently checked out of the pools — scalar
// and laned. Every engine entry point increments it at checkout and
// release decrements it on every exit path (release runs deferred, so
// panics and cancellations are covered too). The chaos battery asserts
// it returns to zero after every scenario: a non-zero residue means an
// exit path leaked pooled scratch.
var arenaLive atomic.Int64

// ArenaLive reports how many pooled kernel arenas are checked out right
// now. Zero when no engine invocation is in flight.
func ArenaLive() int64 { return arenaLive.Load() }

// getArena checks a scalar arena out of the pool.
func getArena() *arena {
	a := arenaPool.Get().(*arena)
	a.checkedOut = true
	arenaLive.Add(1)
	return a
}

// getLanesArena checks a laned arena out of the pool.
func getLanesArena() *lanesArena {
	a := lanesArenaPool.Get().(*lanesArena)
	a.checkedOut = true
	arenaLive.Add(1)
	return a
}

// arena holds the batch kernel's reusable scratch state: the
// structure-of-arrays in-flight message store, the per-stage schedule
// rings, the per-port free-time table and (on the streaming path) the
// trace-block buffers. One arena serves one run at a time; runs obtain
// it from arenaPool, so replications executed back to back — the sweep
// worker loop — reuse the same backing arrays instead of regrowing them
// every run. The kernel's steady-state hot loop performs no allocation:
// every per-message and per-cycle structure below is indexed scratch.
//
// Slot layout. A message in flight occupies one slot index into msl
// (plus a stride-Stages lane of waits when per-stage waits are
// tracked). Slots are recycled through freeSlots as messages leave the
// network; used is the high-water mark of slots ever handed out this
// run. Because slots are allocated lazily — at the cycle a message
// enters stage 1, not when its schedule block is pulled — the store's
// footprint tracks the in-flight population (typically a few hundred
// messages), not the block size, and stays cache-resident.
type arena struct {
	// In-flight message state, indexed by slot. The hot per-message
	// fields are packed into one 16-byte record: every field is touched
	// together at every stage, so one record costs one bounds check and
	// one cache line where parallel columns would cost five of each.
	msl   []mrec
	waits []int16 // stride-Stages per-stage waits (TrackStageWaits only)

	used      int // slots handed out this run (free list aside)
	freeSlots []int32

	rings []kring // rings[s] holds messages scheduled to enter stage s+2
	rel   kring   // graph wiring only: per-switch residency releases
	batch []int32 // one (cycle, stage) batch, reused across stages

	free []int64   // per-stage, per-port next-free cycle
	vec  []float64 // covariance scratch

	// Trace-block scratch lent to a kernel-owned TraceStream for the
	// run's duration and harvested back grown, so back-to-back runs do
	// not regrow the generator's block arrays either. Blocks hold about
	// blockMessages messages whatever the network's width, so this stays
	// far below maxRetainBlk and is always kept.
	blkT    []int32
	blkIn   []int32
	blkDest []uint32
	blkSvc  []int16
	blkMeas []bool

	checkedOut bool // set by getArena, cleared by release (ArenaLive accounting)
}

// mrec is one in-flight message: the port it last departed (its input
// row at stage 1), its destination, accumulated waiting time, service
// requirement and measurement flag, packed to 16 bytes.
type mrec struct {
	dest uint32
	row  int32
	wsum int32
	svc  int16
	meas bool
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// Retention caps applied when an arena returns to the pool: scratch
// grown by a pathological point (saturated high-ρ runs can hold tens of
// thousands of messages in flight) is dropped rather than pinned for
// the rest of the process. Ordinary points sit far below every cap, so
// the steady state stays allocation-free.
const (
	maxRetainSlots      = 1 << 17 // in-flight slots kept across runs
	maxRetainWaits      = 1 << 20 // per-stage wait lanes kept across runs
	maxRetainRingCycles = 1 << 15 // schedule-ring cycle span kept across runs
	maxRetainRingSpan   = 1 << 17 // total bucket capacity kept per ring
	maxRetainBatch      = 1 << 17 // batch scratch kept across runs
	maxRetainPorts      = 1 << 17 // port free-time entries kept across runs
	maxRetainBlk        = 1 << 20 // trace-block entries kept across runs
)

// prepare resets the arena for a run over n stages and rows ports per
// stage, reusing every backing array that is already large enough.
func (a *arena) prepare(n, rows int, trackWaits bool) {
	a.used = 0
	a.freeSlots = a.freeSlots[:0]
	a.batch = a.batch[:0]
	need := n * rows
	if cap(a.free) < need {
		a.free = make([]int64, need)
	} else {
		a.free = a.free[:need]
		clear(a.free)
	}
	if cap(a.vec) < n {
		a.vec = make([]float64, n)
	} else {
		a.vec = a.vec[:n]
	}
	for len(a.rings) < n-1 {
		a.rings = append(a.rings, kring{})
	}
	for i := 0; i < n-1; i++ {
		a.rings[i].reset()
	}
	if trackWaits && len(a.waits) < len(a.msl)*n {
		a.waits = make([]int16, len(a.msl)*n)
	}
}

// growSlots doubles the slot store, preserving live slots. stride is
// the run's stage count (the waits lane width).
func (a *arena) growSlots(stride int, trackWaits bool) {
	nc := 2 * len(a.msl)
	if nc == 0 {
		nc = 256
	}
	a.msl = growCopy(a.msl, nc)
	if trackWaits {
		a.waits = growCopy(a.waits, nc*stride)
	}
}

func growCopy[T any](s []T, n int) []T {
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

// lendBlockScratch hands the arena's trace-block arrays to a freshly
// created stream so its first block reuses their capacity. Only the
// kernel's own private streams are lent scratch: an externally supplied
// stream may outlive the run and must keep owning its arrays.
func (a *arena) lendBlockScratch(s *TraceStream) {
	if s.next != 0 || s.blk.T != nil {
		return
	}
	s.blk.T = a.blkT[:0]
	s.blk.In = a.blkIn[:0]
	s.blk.Dest = a.blkDest[:0]
	s.blk.Svc = a.blkSvc[:0]
	s.blk.Meas = a.blkMeas[:0]
}

// harvestBlockScratch takes the (possibly regrown) block arrays back
// from a stream the arena previously lent scratch to.
func (a *arena) harvestBlockScratch(s *TraceStream) {
	a.blkT = s.blk.T[:0]
	a.blkIn = s.blk.In[:0]
	a.blkDest = s.blk.Dest[:0]
	a.blkSvc = s.blk.Svc[:0]
	a.blkMeas = s.blk.Meas[:0]
	s.blk.T, s.blk.In, s.blk.Dest, s.blk.Svc, s.blk.Meas = nil, nil, nil, nil, nil
}

// release returns the arena to the pool, dropping any scratch grown
// past the retention caps.
func (a *arena) release() {
	if a.checkedOut {
		a.checkedOut = false
		arenaLive.Add(-1)
	}
	if len(a.msl) > maxRetainSlots {
		a.msl = nil
		a.freeSlots = nil
		a.used = 0
	}
	if len(a.waits) > maxRetainWaits {
		a.waits = nil
	}
	if cap(a.freeSlots) > maxRetainSlots {
		a.freeSlots = nil
	}
	for i := range a.rings {
		if len(a.rings[i].buf) > maxRetainRingCycles || a.rings[i].spanCapacity() > maxRetainRingSpan {
			a.rings[i] = kring{}
		}
	}
	if len(a.rel.buf) > maxRetainRingCycles || a.rel.spanCapacity() > maxRetainRingSpan {
		a.rel = kring{}
	}
	if cap(a.batch) > maxRetainBatch {
		a.batch = nil
	}
	if cap(a.free) > maxRetainPorts {
		a.free = nil
	}
	if cap(a.blkT) > maxRetainBlk {
		a.blkT, a.blkIn, a.blkDest, a.blkSvc, a.blkMeas = nil, nil, nil, nil, nil
	}
	arenaPool.Put(a)
}

// lanesArena is the laned kernel's counterpart of arena: pooled
// scratch serving W lock-step replications (lanes) of the same
// configuration. Every array that carries per-replication state is per
// lane — the slot store, the wait lanes, the free lists, the schedule
// rings, the batch scratch and the trace-block scratch — so each
// lane's memory layout is exactly a scalar run's: dense lane-local
// slot indices packed by its own free list, dense stride-Stages wait
// lanes, its own rings in push order. Keeping slot stores dense per
// lane (rather than interleaving lanes into one shared store) is what
// keeps the per-message cache traffic at the scalar kernel's level;
// lanes share only the pool round-trip, the lane-segmented free-time
// table and the covariance scratch.
type lanesArena struct {
	msl   [][]mrec  // per-lane slot stores, indexed by lane-local slot
	waits [][]int16 // per-lane stride-Stages waits (TrackStageWaits only)

	freeSlots [][]int32 // per-lane recycled slots
	rings     []kring   // rings[l·(n-1)+s] holds lane l's messages for stage s+2
	laneBatch [][]int32 // per-lane (cycle, stage) batch scratch

	free []int64   // per-lane, per-stage, per-port next-free cycle
	vec  []float64 // covariance scratch

	blks []TraceBlock // per-lane trace-block scratch (lend/harvest)

	checkedOut bool // set by getLanesArena, cleared by release (ArenaLive accounting)
}

var lanesArenaPool = sync.Pool{New: func() any { return new(lanesArena) }}

// prepare resets the arena for a W-lane run over n stages and rows
// ports per stage, reusing every backing array that is already large
// enough.
func (a *lanesArena) prepare(w, n, rows int, trackWaits bool) {
	for len(a.msl) < w {
		a.msl = append(a.msl, nil)
	}
	for len(a.waits) < w {
		a.waits = append(a.waits, nil)
	}
	for len(a.freeSlots) < w {
		a.freeSlots = append(a.freeSlots, nil)
	}
	for len(a.laneBatch) < w {
		a.laneBatch = append(a.laneBatch, nil)
	}
	for len(a.blks) < w {
		a.blks = append(a.blks, TraceBlock{})
	}
	for l := 0; l < w; l++ {
		a.freeSlots[l] = a.freeSlots[l][:0]
		a.laneBatch[l] = a.laneBatch[l][:0]
		if trackWaits && len(a.waits[l]) < len(a.msl[l])*n {
			a.waits[l] = make([]int16, len(a.msl[l])*n)
		}
	}
	need := w * n * rows
	if cap(a.free) < need {
		a.free = make([]int64, need)
	} else {
		a.free = a.free[:need]
		clear(a.free)
	}
	if cap(a.vec) < n {
		a.vec = make([]float64, n)
	} else {
		a.vec = a.vec[:n]
	}
	for len(a.rings) < w*(n-1) {
		a.rings = append(a.rings, kring{})
	}
	for i := 0; i < w*(n-1); i++ {
		a.rings[i].reset()
	}
}

// growSlots doubles lane l's slot store, preserving its live slots,
// exactly as arena.growSlots does for a scalar run. stride is the
// run's stage count (the waits lane width).
func (a *lanesArena) growSlots(l, stride int, trackWaits bool) {
	nc := 2 * len(a.msl[l])
	if nc == 0 {
		nc = 256
	}
	a.msl[l] = growCopy(a.msl[l], nc)
	if trackWaits {
		a.waits[l] = growCopy(a.waits[l], nc*stride)
	}
}

// lendBlockScratch hands lane l's retained trace-block arrays to that
// lane's freshly created stream, mirroring arena.lendBlockScratch.
func (a *lanesArena) lendBlockScratch(l int, s *TraceStream) {
	if s.next != 0 || s.blk.T != nil {
		return
	}
	b := &a.blks[l]
	s.blk.T = b.T[:0]
	s.blk.In = b.In[:0]
	s.blk.Dest = b.Dest[:0]
	s.blk.Svc = b.Svc[:0]
	s.blk.Meas = b.Meas[:0]
}

// harvestBlockScratch takes lane l's (possibly regrown) block arrays
// back from its stream.
func (a *lanesArena) harvestBlockScratch(l int, s *TraceStream) {
	b := &a.blks[l]
	b.T = s.blk.T[:0]
	b.In = s.blk.In[:0]
	b.Dest = s.blk.Dest[:0]
	b.Svc = s.blk.Svc[:0]
	b.Meas = s.blk.Meas[:0]
	s.blk.T, s.blk.In, s.blk.Dest, s.blk.Svc, s.blk.Meas = nil, nil, nil, nil, nil
}

// release returns the arena to the pool, dropping scratch grown past
// the same retention caps arena.release applies: the caps bound total
// retained bytes, so they apply to the shared arrays as a whole and to
// each per-lane array individually.
func (a *lanesArena) release() {
	if a.checkedOut {
		a.checkedOut = false
		arenaLive.Add(-1)
	}
	for l := range a.msl {
		if len(a.msl[l]) > maxRetainSlots {
			a.msl[l] = nil
		}
	}
	for l := range a.waits {
		if len(a.waits[l]) > maxRetainWaits {
			a.waits[l] = nil
		}
	}
	for l := range a.freeSlots {
		if cap(a.freeSlots[l]) > maxRetainSlots {
			a.freeSlots[l] = nil
		}
	}
	for i := range a.rings {
		if len(a.rings[i].buf) > maxRetainRingCycles || a.rings[i].spanCapacity() > maxRetainRingSpan {
			a.rings[i] = kring{}
		}
	}
	for l := range a.laneBatch {
		if cap(a.laneBatch[l]) > maxRetainBatch {
			a.laneBatch[l] = nil
		}
	}
	if cap(a.free) > maxRetainPorts {
		a.free = nil
	}
	for l := range a.blks {
		if cap(a.blks[l].T) > maxRetainBlk {
			a.blks[l] = TraceBlock{}
		}
	}
	lanesArenaPool.Put(a)
}

// kring is the kernel's flat schedule ring for one stage: a growable
// power-of-two ring indexed by absolute cycle, where each cell is a
// contiguous bucket of slot indices whose capacity is retained across
// cycles — and, via the arena pool, across runs — so the steady state
// pushes into pre-grown storage and never allocates. It replaces
// cycleBuckets' take-ownership/recycle free-list protocol: a take
// memcpys the cycle's bucket into the caller's batch and resets it in
// place, so the cell can immediately accept pushes for the aliased
// future cycle t+size. Buckets append in push order, so the kernel's
// shuffle consumes the same RNG draws over the same sequence as the
// reference engine.
type kring struct {
	buf   [][]int32
	mask  int64
	floor int64 // cycles below floor have been taken already
	count int64 // messages currently scheduled in this ring
}

func (r *kring) reset() {
	if r.buf == nil {
		r.buf = make([][]int32, 64)
		r.mask = 63
	}
	for i := range r.buf {
		if b := r.buf[i]; len(b) > 0 {
			r.buf[i] = b[:0]
		}
	}
	r.floor = 0
	r.count = 0
}

// push schedules slot si for cycle t.
func (r *kring) push(t int64, si int32) {
	if t-r.floor >= int64(len(r.buf)) {
		r.grow(t)
	}
	i := t & r.mask
	r.buf[i] = append(r.buf[i], si)
	r.count++
}

// grow re-homes the ring so that cycle t fits alongside r.floor.
func (r *kring) grow(t int64) {
	old := int64(len(r.buf))
	size := old
	for t-r.floor >= size {
		size *= 2
	}
	nb := make([][]int32, size)
	nm := size - 1
	// Cycles [floor, floor+old) cover every old cell exactly once, so
	// this moves each bucket — and its retained capacity — to its new
	// home.
	for c := r.floor; c < r.floor+old; c++ {
		nb[c&nm] = r.buf[c&r.mask]
	}
	r.buf, r.mask = nb, nm
}

// take copies the bucket scheduled for cycle t (which must be ≥ the
// previous take's cycle) into batch, in push order, and resets the
// bucket for reuse.
func (r *kring) take(t int64, batch []int32) []int32 {
	r.floor = t + 1
	i := t & r.mask
	b := r.buf[i]
	if len(b) == 0 {
		return batch
	}
	batch = append(batch, b...)
	r.buf[i] = b[:0]
	r.count -= int64(len(b))
	return batch
}

// spanCapacity reports the total bucket capacity retained by the ring,
// the figure bounded by the arena's release trimming.
func (r *kring) spanCapacity() int {
	c := 0
	for _, b := range r.buf {
		c += cap(b)
	}
	return c
}
