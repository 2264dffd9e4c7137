package simnet

import (
	"sync"
	"sync/atomic"
)

// arenaLive counts arenas currently checked out of the pool. Every
// engine entry point increments it at checkout and release decrements
// it on every exit path (release runs deferred, so panics and
// cancellations are covered too). The chaos battery asserts
// it returns to zero after every scenario: a non-zero residue means an
// exit path leaked pooled scratch.
var arenaLive atomic.Int64

// ArenaLive reports how many pooled kernel arenas are checked out right
// now. Zero when no engine invocation is in flight.
func ArenaLive() int64 { return arenaLive.Load() }

// getArena checks an arena out of the pool.
func getArena() *arena {
	a := arenaPool.Get().(*arena)
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

	rings     []kring // rings[s] holds messages scheduled to enter stage s+2
	rel       kring   // graph wiring only: per-switch residency releases
	ringChunk int     // ring chunk size in slots; 0 (ringChunk) outside tests
	batch     []int32 // one (cycle, stage) batch, reused across stages

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
	maxRetainRingSpan   = 1 << 17 // chunk storage kept per ring, in slots
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
		a.rings[i].reset(a.ringChunk)
	}
	a.freeSlots = growFree(a.freeSlots, len(a.msl))
	if trackWaits && len(a.waits) < len(a.msl)*n {
		a.waits = make([]int16, len(a.msl)*n)
	}
}

// growSlots doubles the slot store, preserving live slots. stride is
// the run's stage count (the waits lane width). The free list can never
// hold more entries than there are slots, so it is sized to the store
// here and the kernel's appends to it never regrow it past the store —
// or past the retention cap the store itself meets.
func (a *arena) growSlots(stride int, trackWaits bool) {
	nc := 2 * len(a.msl)
	if nc == 0 {
		nc = 256
	}
	a.msl = growCopy(a.msl, nc)
	a.freeSlots = growFree(a.freeSlots, nc)
	if trackWaits {
		a.waits = growCopy(a.waits, nc*stride)
	}
}

func growCopy[T any](s []T, n int) []T {
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

// growFree returns free list s with capacity for n entries, keeping its
// contents.
func growFree(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s
	}
	ns := make([]int32, len(s), n)
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
	a.trim()
	arenaPool.Put(a)
}

// trim drops the scratch a run grew past the retention caps.
func (a *arena) trim() {
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
		a.rings[i].trim()
	}
	a.rel.trim()
	if cap(a.batch) > maxRetainBatch {
		a.batch = nil
	}
	if cap(a.free) > maxRetainPorts {
		a.free = nil
	}
	if cap(a.blkT) > maxRetainBlk {
		a.blkT, a.blkIn, a.blkDest, a.blkSvc, a.blkMeas = nil, nil, nil, nil, nil
	}
}

// kring is the kernel's schedule ring for one stage: a growable
// power-of-two ring of cells indexed by absolute cycle, where each cell
// is a linked list of fixed-size chunks holding the slot indices
// scheduled for that cycle, in push order. Every chunk comes from one
// flat data array shared by all cells and returns to the ring's free
// list when its cell is taken, so the storage a ring retains — across
// cycles and, via the arena pool, across runs — is bounded by the
// messages scheduled at once plus one part-filled chunk per live cell,
// not by the ring's size times the largest batch. A push writes into
// the cell's tail chunk (linking a free chunk when it is full); a take
// copies the cell's chunks into the caller's batch in push order and
// frees them, so the next push reuses the last chunk drained, which is
// still in cache; growing the ring re-homes only the cells' head and
// tail indices. Push order per cell is all the kernel's shuffle sees,
// so its RNG draws are the reference engine's.
type kring struct {
	cells []kcell
	mask  int64
	floor int64 // cycles below floor have been taken already
	count int64 // messages currently scheduled in this ring

	data  []int32 // chunk c holds data[c·chunk : (c+1)·chunk]
	next  []int32 // next[c]: the chunk after c in its cell
	free  []int32 // drained chunk ids, the most recently drained last
	chunk int32   // slots per chunk: ringChunk unless a test shrinks it
}

// kcell is one cycle's list of chunks: every chunk but the tail one is
// full. The zero value is an empty cell; a cell with chunks has end > 0.
type kcell struct {
	head int32 // first chunk
	pos  int32 // data index of the next push
	end  int32 // data index one past the tail chunk
}

// ringChunk is the default chunk size in slots. Small networks hold a
// handful of messages per cell, so a small chunk keeps their rings
// compact; a 4096-row network's busy cells span a few dozen chunks.
const ringChunk = 64

// reset empties the ring for a new run with chunks of the given size
// (0 selects ringChunk), keeping every backing array's capacity.
func (r *kring) reset(chunk int) {
	if chunk <= 0 {
		chunk = ringChunk
	}
	if r.cells == nil {
		r.cells = make([]kcell, 64)
		r.mask = 63
	} else {
		clear(r.cells)
	}
	r.chunk = int32(chunk)
	r.data = r.data[:0]
	r.next = r.next[:0]
	r.free = r.free[:0]
	r.floor = 0
	r.count = 0
}

// push schedules slot si for cycle t.
func (r *kring) push(t int64, si int32) {
	if t-r.floor >= int64(len(r.cells)) {
		r.grow(t)
	}
	c := &r.cells[t&r.mask]
	if c.pos == c.end {
		r.link(c)
	}
	r.data[c.pos] = si
	c.pos++
	r.count++
}

// link appends a chunk to c's list: the most recently drained one, or a
// fresh one at the end of data.
func (r *kring) link(c *kcell) {
	cs := r.chunk
	var id int32
	if f := len(r.free); f > 0 {
		id = r.free[f-1]
		r.free = r.free[:f-1]
	} else {
		id = int32(len(r.next))
		r.data = append(r.data, make([]int32, cs)...)
		r.next = append(r.next, 0)
	}
	if c.end == 0 {
		c.head = id
	} else {
		r.next[c.end/cs-1] = id
	}
	c.pos = id * cs
	c.end = c.pos + cs
}

// grow re-homes the ring so that cycle t fits alongside r.floor.
func (r *kring) grow(t int64) {
	old := int64(len(r.cells))
	size := old
	for t-r.floor >= size {
		size *= 2
	}
	nc := make([]kcell, size)
	nm := size - 1
	// Cycles [floor, floor+old) cover every old cell exactly once, so
	// this moves each cell's chunk list to its new home.
	for c := r.floor; c < r.floor+old; c++ {
		nc[c&nm] = r.cells[c&r.mask]
	}
	r.cells, r.mask = nc, nm
}

// take copies the cell scheduled for cycle t (which must be ≥ the
// previous take's cycle) into batch, in push order, and frees its
// chunks.
func (r *kring) take(t int64, batch []int32) []int32 {
	r.floor = t + 1
	c := &r.cells[t&r.mask]
	if c.end == 0 {
		return batch
	}
	cs := r.chunk
	n0 := len(batch)
	for id := c.head; ; id = r.next[id] {
		r.free = append(r.free, id)
		off := id * cs
		if off+cs == c.end {
			batch = append(batch, r.data[off:c.pos]...)
			break
		}
		batch = append(batch, r.data[off:off+cs]...)
	}
	r.count -= int64(len(batch) - n0)
	*c = kcell{}
	return batch
}

// trim drops the ring's storage when a run grew it past the retention
// caps.
func (r *kring) trim() {
	if len(r.cells) > maxRetainRingCycles || r.spanCapacity() > maxRetainRingSpan {
		*r = kring{}
	}
}

// spanCapacity reports the chunk storage retained by the ring, in
// slots: the figure bounded by the arena's release trimming.
func (r *kring) spanCapacity() int {
	return cap(r.data)
}
