package simnet

import (
	"sync"
	"sync/atomic"
)

// arenas is the free list engine runs take their arena from: released
// arenas, the most recently released last. Unlike a sync.Pool it is not
// emptied by garbage collection, so a run after a collection reuses the
// scratch earlier runs grew instead of regrowing it, and a run on any
// goroutine reuses an arena released on any other.
//
// The list is bounded by peak, the most arenas ever checked out at
// once: every worker that ever ran concurrently keeps its own arena,
// and no more are kept. getArena builds a new arena only when the list
// is empty, so checked-out and listed arenas together never exceed the
// bound.
//
// A kept arena stays live, and the collector's heap goal grows with
// twice what it holds, so an arena keeps only what its runs use: the
// retention caps (maxRetain*) bound every array, and a run drops the
// wait lanes when it does not track waits (fitWaits) and the helper
// group's scratch when it is too light to split (dropHelper). At every cap at
// once an arena pins about 93 MiB plus 1.9 MiB per stage
// (TestArenaRetainedBytes), while an ordinary point's arena keeps well
// under 1 MiB. So after a sweep of pathological points a long-lived
// process holds at most peak times that until it exits.
var arenas struct {
	mu   sync.Mutex
	free []*arena
	peak int64
}

// arenaLive counts arenas currently checked out. Every engine entry
// point increments it at checkout and release decrements it on every
// exit path (release runs deferred, so panics and cancellations are
// covered too). The chaos battery asserts it returns to zero after
// every scenario: a non-zero residue means an exit path leaked an
// arena.
var arenaLive atomic.Int64

// ArenaLive reports how many kernel arenas are checked out right now.
// Zero when no engine invocation is in flight.
func ArenaLive() int64 { return arenaLive.Load() }

// getArena checks out the most recently released arena, or a new one
// when none is free.
func getArena() *arena {
	arenas.mu.Lock()
	var a *arena
	if n := len(arenas.free); n > 0 {
		a = arenas.free[n-1]
		arenas.free[n-1] = nil
		arenas.free = arenas.free[:n-1]
	}
	arenas.peak = max(arenas.peak, arenaLive.Add(1))
	arenas.mu.Unlock()
	if a == nil {
		a = new(arena)
	}
	a.checkedOut = true
	return a
}

// arena holds the batch kernel's reusable scratch state: the in-flight
// message store and batches of each stage group, the per-stage schedule
// rings, the per-port free-time table and (on the streaming path) the
// trace-block buffers. The finite-buffer cycle loop (cycle.go) keeps
// its slots, queue rings and buffers here too, and a probed run its
// histogram buffers and open trace spans. One arena serves one run
// at a time; runs check it out of the arenas free list, so replications
// executed back to back — the sweep worker loop — reuse the same
// backing arrays instead of regrowing them every run, across
// collections too. The kernel's steady-state hot
// loop performs no allocation: every per-message and per-cycle
// structure below is indexed scratch. The rings and the free-time table
// are indexed by stage, so the two groups of a split run share them
// without sharing an element.
type arena struct {
	// The caller's stage group: the kernel's slot store and batch
	// scratch, and the cycle loop's free list, waits and batch.
	groupScratch

	// The helper goroutine's stage group and the boundary crossings
	// between the two groups (pipeline.go), double-buffered: touched only
	// by a run that splits its stages in two.
	helper groupScratch
	cross  [2]crossings

	rng krand // the kernel run's generator, which a split run's groups pass between them

	rings     []kring // rings[s] holds messages scheduled to enter stage s+2
	rel       kring   // graph wiring only: per-switch residency releases
	ringChunk int     // ring chunk size in slots; 0 (ringChunk) outside tests

	// Test seams of the two-group kernel: a positive split forces a
	// run's stages to split at that stage whatever its size, a negative
	// one keeps them in one group, and 0 lets the eligibility rule
	// decide; onHelperCycle, when set, runs on the helper goroutine twice
	// in every cycle it serves: before it takes the cycle's batches
	// (drawn false) and after it has returned the RNG, before it serves
	// them (drawn true).
	split         int
	onHelperCycle func(t int64, drawn bool)

	free []int64   // per-stage, per-port next-free cycle
	vec  []float64 // covariance scratch

	// Cycle-loop scratch (cycle.go). The loop shares used, waits, batch
	// and vec with the kernel and keeps its own free list; its slots are
	// cycleMsg records, and every queue is a ring in its stage's store.
	cmsl     []cycleMsg
	queues   []cycleQueue // stage-major, one per (stage, output port)
	qstore   [][]int32    // qstore[s] backs stage s's queue rings
	busy     []uint64     // stage-major bitmap of non-empty queues
	parked   []int32      // block policy: slot parked on each sender port, -1 if none
	parkBits []uint64     // block policy: stage-major bitmap of parked ports
	held     []int32      // stage-1 arrivals waiting out a full first queue
	buffered []int32      // pulled arrivals awaiting injection, trace order
	delivery [2][]int32   // deliveries due at even and odd cycles

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

	probe probeScratch // a probed run's histogram buffers and open spans

	checkedOut bool // set by getArena, cleared by release (ArenaLive accounting)
}

// groupScratch is one stage group's reusable scratch: the slot store of
// the messages inside its stages and the batches of the cycle it is
// serving.
//
// Slot layout. A message in flight occupies one slot index into msl
// (plus a stride-Stages lane of waits when per-stage waits are
// tracked). Slots are recycled as messages leave the group, last freed
// first handed out: through a list threaded through the free records
// themselves (freeHead), so the kernel keeps no free-list array beside
// its store. used is the high-water mark of slots ever handed out this
// run. Because slots are allocated lazily — at the cycle a message
// enters the group, not when its schedule block is pulled — the store's
// footprint tracks the in-flight population (typically a few hundred
// messages), not the block size, and stays cache-resident.
type groupScratch struct {
	// In-flight message state, indexed by slot. The hot per-message
	// fields are packed into one 16-byte record: every field is touched
	// together at every stage, so one record costs one bounds check and
	// one cache line where parallel columns would cost five of each.
	msl   []mrec
	waits []int32 // stride-Stages per-stage waits (TrackStageWaits only)

	used     int   // slots handed out this run (free list aside)
	freeHead int32 // kernel: the last freed slot, whose dest links to the one before; -1 when none

	freeSlots []int32 // the cycle loop's free list

	batch  []int32   // the cycle's batches, one stage after another
	bounds []int32   // stage lo+i's batch is batch[bounds[i]:bounds[i+1]]
	svc    []int64   // resampled service times of the batches, in draw order
	outs   []outcome // the outcomes of the batch being served, for the observer passes
}

// outcome is what serving a message at a stage decided, kept for the
// kernel's observer passes: its wait and the output port it took (-1
// when a failed link dropped it), with the message's measurement flag,
// so that most passes read no slot.
type outcome struct {
	wait int32
	port int32
	meas bool
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

// Retention caps applied when an arena returns to the free list: scratch
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
	maxRetainPorts      = 1 << 17 // per-port entries kept across runs
	maxRetainQueueStore = 1 << 18 // queue-ring storage kept per stage, in slots
	maxRetainBlk        = 1 << 20 // trace-block entries kept across runs
	maxRetainHistBufs   = 64      // probe histogram buffers (stages + 1) kept across runs
	maxRetainSpanStages = 1 << 17 // open-span stage entries kept per span slab
)

// prepare resets the arena for a run over n stages and rows ports per
// stage, reusing every backing array that is already large enough.
func (a *arena) prepare(n, rows int, trackWaits bool) {
	a.free = resized(a.free, n*rows)
	clear(a.free)
	a.vec = resized(a.vec, n)
	for len(a.rings) < n-1 {
		a.rings = append(a.rings, kring{})
	}
	for i := 0; i < n-1; i++ {
		a.rings[i].reset(a.ringChunk)
	}
	a.groupScratch.prepare(n, trackWaits)
}

// prepare resets a stage group's scratch for a run over n stages.
func (g *groupScratch) prepare(n int, trackWaits bool) {
	g.used = 0
	g.freeHead = -1
	g.batch = g.batch[:0]
	g.bounds = resized(g.bounds, n+1)
	g.fitWaits(len(g.msl), n, trackWaits)
}

// dropHelper drops the scratch of the helper stage group, which only a
// split kernel run uses (pipeline.go). A kernel run too light to split
// calls it, so a kept arena holds that scratch only while its runs are
// heavy; a heavy run that cannot split, such as a six-stage one, keeps
// it for the split runs it alternates with.
func (a *arena) dropHelper() {
	a.helper, a.cross, a.probe.helperSpans = groupScratch{}, [2]crossings{}, spanSlab{}
}

// prepareCycle resets the arena for a cycle-loop run over n stages of
// rows queues each, reusing every backing array that is already large
// enough. caps[s] bounds stage s+1's queues (0 = unbounded): each ring
// starts at min(cap, queueInit) slots in its stage's store and doubles
// into the store's tail when it fills, so a stage reserves rows ×
// queueInit slots up front whatever its cap. block selects the block
// policy, which parks stalled deliveries on their sender ports.
func (a *arena) prepareCycle(n, rows int, caps []int, block, trackWaits bool) {
	a.used = 0
	a.freeSlots = a.freeSlots[:0]
	a.batch = a.batch[:0]
	a.held = a.held[:0]
	a.buffered = a.buffered[:0]
	a.delivery[0] = a.delivery[0][:0]
	a.delivery[1] = a.delivery[1][:0]
	a.vec = resized(a.vec, n)
	a.queues = resized(a.queues, n*rows)
	for len(a.qstore) < n {
		a.qstore = append(a.qstore, nil)
	}
	for s := 0; s < n; s++ {
		size := queueInit
		if c := caps[s]; c > 0 && c < size {
			size = c
		}
		a.qstore[s] = resized(a.qstore[s], rows*size)
		qs := a.queues[s*rows : (s+1)*rows]
		for r := range qs {
			qs[r] = cycleQueue{off: int32(r * size), size: int32(size)}
		}
	}
	words := bitmapWords(rows)
	a.busy = resized(a.busy, n*words)
	clear(a.busy)
	if block {
		a.parked = resized(a.parked, (n-1)*rows)
		for i := range a.parked {
			a.parked[i] = -1
		}
		a.parkBits = resized(a.parkBits, (n-1)*words)
		clear(a.parkBits)
	}
	a.fitSlotScratch(len(a.cmsl), n, trackWaits)
}

// growQueue doubles q, a full ring of stage s, up to limit slots
// (0 = unbounded): the ring moves, unwrapped, to the tail of the stage's
// store. The space it leaves stays unused until the next run's reset.
func (a *arena) growQueue(s int, q *cycleQueue, limit int) {
	size := 2 * int(q.size)
	if limit > 0 && size > limit {
		size = limit
	}
	st := a.qstore[s]
	off := len(st)
	if cap(st)-off < size {
		ns := make([]int32, off, 2*cap(st)+size)
		copy(ns, st)
		st = ns
	}
	st = st[:off+size]
	ring := st[q.off : q.off+q.size]
	m := copy(st[off:], ring[q.head:])
	copy(st[off+m:], ring[:q.head])
	a.qstore[s] = st
	q.off, q.size, q.head = int32(off), int32(size), 0
}

// queueInit is the slot count a queue ring starts with.
const queueInit = 4

// bitmapWords is the number of 64-bit words a bitmap of n bits spans.
func bitmapWords(n int) int { return (n + 63) / 64 }

// resized returns s with length n, reusing its backing array when large
// enough; the contents are unspecified.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fitSlotScratch sizes the free list and (when tracked) the wait table
// for a slot store of the given size over stride stages, keeping their
// contents.
func (g *groupScratch) fitSlotScratch(slots, stride int, trackWaits bool) {
	g.freeSlots = withCap(g.freeSlots, slots)
	g.fitWaits(slots, stride, trackWaits)
}

// fitWaits sizes the wait table (when tracked) for a slot store of the
// given size over stride stages, keeping its contents. A run that does
// not track waits drops the table: a kept arena holds the wait lanes
// only while its runs use them.
func (g *groupScratch) fitWaits(slots, stride int, trackWaits bool) {
	if !trackWaits {
		g.waits = nil
	} else if len(g.waits) < slots*stride {
		g.waits = growCopy(g.waits, slots*stride)
	}
}

// growSlots doubles the kernel's slot store, preserving live slots.
// stride is the run's stage count (the waits lane width).
func (g *groupScratch) growSlots(stride int, trackWaits bool) {
	g.msl = growCopy(g.msl, slotGrowth(len(g.msl)))
	g.fitWaits(len(g.msl), stride, trackWaits)
}

// freeSlot puts kernel slot si at the head of the free list.
func (g *groupScratch) freeSlot(si int32) {
	g.msl[si].dest = uint32(g.freeHead)
	g.freeHead = si
}

// growCycleSlots doubles the cycle loop's slot store, preserving live
// slots. The free list can never hold more entries than there are
// slots, so it is sized to the store here and the loop's appends to it
// never regrow it past the store — or past the retention cap the store
// itself meets.
func (a *arena) growCycleSlots(stride int, trackWaits bool) {
	a.cmsl = growCopy(a.cmsl, slotGrowth(len(a.cmsl)))
	a.fitSlotScratch(len(a.cmsl), stride, trackWaits)
}

// slotGrowth is the size a slot store of n slots grows to.
func slotGrowth(n int) int {
	if n == 0 {
		return 256
	}
	return 2 * n
}

func growCopy[T any](s []T, n int) []T {
	ns := make([]T, n)
	copy(ns, s)
	return ns
}

// withCap returns s with capacity for n entries, keeping its contents.
func withCap[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s
	}
	ns := make([]T, len(s), n)
	copy(ns, s)
	return ns
}

// grown returns s lengthened by n zeroed entries, keeping its contents
// and doubling its capacity when it must grow: append's gentler growth
// for large slices would copy a store that fills over a run several
// times over.
func grown[T any](s []T, n int) []T {
	l := len(s) + n
	if l > cap(s) {
		s = withCap(s, max(2*cap(s), l))
	}
	s = s[:l]
	clear(s[l-n:])
	return s
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

// release trims the arena to the retention caps and, if it was checked
// out, returns it to the free list unless the list already holds its
// bound; a dropped arena is left to the collector.
func (a *arena) release() {
	a.trim()
	if !a.checkedOut {
		return
	}
	a.checkedOut = false
	arenas.mu.Lock()
	arenaLive.Add(-1)
	if int64(len(arenas.free)) < arenas.peak {
		arenas.free = append(arenas.free, a)
	}
	arenas.mu.Unlock()
}

// trim drops the scratch a run grew past the retention caps.
func (a *arena) trim() {
	a.groupScratch.trim()
	a.helper.trim()
	for i := range a.cross {
		a.cross[i].trim()
	}
	for i := range a.rings {
		a.rings[i].trim()
	}
	a.rel.trim()
	if cap(a.free) > maxRetainPorts {
		a.free = nil
	}
	if len(a.cmsl) > maxRetainSlots {
		a.cmsl = nil
		a.freeSlots = nil
	}
	if cap(a.queues) > maxRetainPorts {
		a.queues, a.busy = nil, nil
	}
	for s := range a.qstore {
		if cap(a.qstore[s]) > maxRetainQueueStore {
			a.qstore[s] = nil
		}
	}
	if cap(a.parked) > maxRetainPorts {
		a.parked, a.parkBits = nil, nil
	}
	for _, b := range []*[]int32{&a.held, &a.buffered, &a.delivery[0], &a.delivery[1]} {
		if cap(*b) > maxRetainBatch {
			*b = nil
		}
	}
	if cap(a.blkT) > maxRetainBlk {
		a.blkT, a.blkIn, a.blkDest, a.blkSvc, a.blkMeas = nil, nil, nil, nil, nil
	}
	if cap(a.probe.hbuf) > maxRetainHistBufs {
		a.probe.hbuf = nil
	}
	a.probe.spans.trim()
	a.probe.helperSpans.trim()
	var switches int
	for _, s := range a.probe.sat {
		switches += cap(s)
	}
	if switches > maxRetainPorts {
		a.probe.sat = nil
	}
}

// reserve gives the batch scratch room for want entries, within the
// retention cap, so a wide network's batches do not regrow it by append.
func (g *groupScratch) reserve(want int) {
	if want = min(want, maxRetainBatch); cap(g.batch) < want {
		g.batch = make([]int32, 0, want)
	}
}

// outcomes returns the outcome scratch for a batch of n messages. It
// grows by doubling, so a run's first batches regrow it only a few
// times, and is kept across runs like the batch scratch.
func (g *groupScratch) outcomes(n int) []outcome {
	if cap(g.outs) < n {
		g.outs = make([]outcome, max(n, 2*cap(g.outs)))
	}
	return g.outs[:n]
}

// trim drops the scratch a run grew past the retention caps.
func (g *groupScratch) trim() {
	if len(g.msl) > maxRetainSlots {
		g.msl = nil
		g.used = 0
	}
	if len(g.waits) > maxRetainWaits {
		g.waits = nil
	}
	if cap(g.freeSlots) > maxRetainSlots {
		g.freeSlots = nil
	}
	if cap(g.batch) > maxRetainBatch {
		g.batch = nil
	}
	if cap(g.svc) > maxRetainBatch {
		g.svc = nil
	}
	if cap(g.outs) > maxRetainBatch {
		g.outs = nil
	}
}

// kring is the kernel's schedule ring for one stage: a growable
// power-of-two ring of cells indexed by absolute cycle, where each cell
// is a linked list of fixed-size chunks holding the slot indices
// scheduled for that cycle, in push order. Every chunk comes from one
// flat data array shared by all cells and returns to the ring's free
// list when its cell is taken, so the storage a ring retains — across
// cycles and, via the arenas free list, across runs — is bounded by the
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
		if need := len(r.data) + int(cs); need > cap(r.data) {
			// Double the storage: append's gentler growth for large
			// slices made filling a wide network's rings copy their
			// chunks about five times over.
			nd := make([]int32, len(r.data), max(2*cap(r.data), need))
			copy(nd, r.data)
			r.data = nd
		}
		r.data = r.data[:len(r.data)+int(cs)]
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
