package simnet

import (
	"context"
	"fmt"
	"math/bits"

	"banyan/internal/stats"
)

// This file is the finite-buffer engine: one cycle-driven loop that
// models every output queue explicitly, cycle by cycle. Simultaneous
// arrivals at a queue are ordered uniformly at random, realizing the
// random batch-service discipline the analysis assumes. A message that
// finds its queue full meets one of two overflow policies:
//
//   - drop, the literal engine: the message is lost and counted in
//     Result.Dropped. Every stage is capped at Config.BufferCap and
//     routing follows the omega arithmetic of the trace's TraceMeta, so
//     the wrapped shuffle (rows < k^n), which the wiring tables cannot
//     express, is supported;
//   - block, the graph engine with a finite Config.StageBuffers entry:
//     the message stays put and its output port stalls (head-of-line
//     blocking) until the queue drains. Routing follows a graphNet's
//     wiring tables, with its failure policy and per-switch telemetry.
//
// With caps that never fill, both policies are statistically identical
// to the batch kernel; the test suite drives both from one trace and
// compares.
//
// Memory follows the kernel's discipline: every structure below is
// scratch in the run's arena (arena.go), reset between runs rather than
// reallocated, so a warm arena runs the loop without allocating.
//
//   - Each (stage, port) queue is a ring in one flat []cycleQueue, over
//     one []int32 store per stage. A ring starts at min(cap, 4) slots
//     and, when full, doubles into the tail of its stage's store, up to
//     its cap; a stage's store therefore grows with the queues that
//     actually fill, never to rows × cap up front, and an uncapped
//     stage's rings grow without limit.
//   - In-flight messages are 20-byte cycleMsg slots recycled through the
//     arena's free list; per-stage waits, when tracked, live in one flat
//     slots × stages int32 table.
//   - A per-stage bitmap of non-empty queues drives the service phase,
//     and a second one the parked ports of the block policy, both walked
//     in ascending row order: idle ports cost nothing, and every RNG draw
//     and statistics update happens in the order of a full scan.
//   - The RNG is krand, the kernel's devirtualized PCG-DXSM, and both
//     shuffles are its Fisher–Yates; the draws are those of
//     math/rand/v2 (TestKrandMatchesRandV2). When k and every digit
//     divisor are powers of two, routing extracts digits by shift.

// RunLiteralSource executes the literal engine against an arrival
// source.
//
// Deprecated: call RunEngine(ctx, Literal, cfg, src).
func RunLiteralSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunEngine(context.Background(), Literal, cfg, src)
}

// cycleQueue is one output-port FIFO of the cycle loop: a ring of size
// slots at off in its stage's store, holding n slot indices from head.
type cycleQueue struct {
	off, size, head, n int32
	freeAt             int64 // first cycle the server may start the next message
}

// push appends si; the ring must have room (arena.growQueue).
func (q *cycleQueue) push(store []int32, si int32) {
	i := q.head + q.n
	if i >= q.size {
		i -= q.size
	}
	store[q.off+i] = si
	q.n++
}

// pop removes and returns the head-of-line slot.
func (q *cycleQueue) pop(store []int32) int32 {
	v := store[q.off+q.head]
	q.head++
	if q.head == q.size {
		q.head = 0
	}
	q.n--
	return v
}

// cycleMsg is the per-in-flight-message state of the cycle loop, 20
// bytes. Slots are recycled through the arena's free list as messages
// finish or drop.
type cycleMsg struct {
	arrivedAt int32  // logical arrival cycle at the current stage's queue
	row       int32  // row of the queue the message occupies
	wsum      int32  // accumulated waiting time
	dest      uint32 // destination address
	svc       int16  // service requirement, cycles
	stage     int8   // 1-based stage the message occupies
	meas      bool
}

// runCycle is the cycle loop over the scratch of arena ar. caps[s]
// bounds stage s+1's queues (0 = infinite) and drop selects the
// overflow policy: true loses a message at a full queue, false blocks
// it. A nil g routes by the omega arithmetic of src's TraceMeta; a
// non-nil g routes through its wiring tables and applies its failure
// policy and per-switch telemetry. The per-cycle phases are:
//
//  1. retry blocked inter-stage deliveries, in (stage, row) order
//     (block policy only);
//  2. injections — held stage-1 arrivals plus this cycle's fresh trace
//     arrivals, shuffled together — each entering unless its stage-1
//     queue is full;
//  3. fresh deliveries (messages that started service at t-1), shuffled;
//     under the block policy a delivery into a full queue parks on its
//     sender port and rejoins phase 1 next cycle;
//  4. every unstalled free server starts its head-of-line message, in
//     (stage, row) order;
//  5. occupancy sampling, with Config.TrackOccupancy.
func runCycle(ctx context.Context, cfg *Config, src ArrivalSource, ar *arena, g *graphNet, caps []int, drop bool) (*Result, error) {
	// Outcomes of one attempt to enter a queue.
	const (
		entered = iota
		droppedOut
		blocked
	)
	meta := src.Meta()
	n, rows, k := meta.Stages, meta.Rows, meta.K
	res := newResult(cfg, meta)
	if cfg.TrackOccupancy {
		res.QueueDepth = make([]stats.Welford, n)
		res.MaxQueueDepth = make([]int, n)
	}
	// sw is g when it keeps per-switch counters, nil otherwise.
	var sw *graphNet
	if g != nil && g.load != nil {
		sw = g
	}
	if g != nil && cfg.TrackSwitches {
		defer func() { res.SwitchSat = g.switchSat(cfg) }()
	}

	trackWaits := cfg.TrackStageWaits
	ar.prepareCycle(n, rows, caps, !drop, trackWaits)
	queues := ar.queues
	busy := ar.busy
	words := bitmapWords(rows)
	// parked[s·rows+r] holds the message served at stage s+1's output row
	// r whose delivery to the next stage is stalled; -1 when the port is
	// clear, and parkBits marks the ports that are not. The sender port
	// cannot start another message while one is parked, so at most one
	// message is ever parked per port. The drop policy never parks, and
	// leaves both nil.
	var parked []int32
	var parkBits []uint64
	if !drop {
		parked, parkBits = ar.parked, ar.parkBits
	}
	slots := ar.cmsl
	waits := ar.waits
	vec := ar.vec // covariance scratch

	// Digit extraction: by shift when k and every digit divisor are
	// powers of two (then so is the row count, a power of k), by
	// division otherwise.
	divs := meta.digitDiv
	if g != nil {
		divs = g.div
	}
	shiftDigits := k&(k-1) == 0
	for _, d := range divs {
		shiftDigits = shiftDigits && d&(d-1) == 0
	}
	logk := uint(bits.TrailingZeros32(uint32(k)))
	kmask := uint32(k - 1)
	rowMask := int32(rows - 1)

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		if g == nil {
			pc = newRunProbe(cfg, n, "literal", &ar.probe)
		} else {
			pc = newRunProbe(cfg, n, "graph", &ar.probe)
			pc.graph = g
		}
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists

	fi := cfg.Fault
	alloc := func() int32 {
		if fn := len(ar.freeSlots); fn > 0 {
			si := ar.freeSlots[fn-1]
			ar.freeSlots = ar.freeSlots[:fn-1]
			if pc != nil {
				pc.freeHits++
			}
			return si
		}
		if fi != nil {
			fi.OnSlotAlloc() // may panic with a typed injected error
		}
		if ar.used == len(slots) {
			ar.growCycleSlots(n, trackWaits)
			slots, waits = ar.cmsl, ar.waits
		}
		si := int32(ar.used)
		ar.used++
		if pc != nil {
			pc.slotAllocs++
		}
		return si
	}

	rng := newKrand(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1)
	resample := cfg.serviceSampler()

	// checkRoute: g has failed links, which resolve routes around or
	// drops at, and which may misroute a message.
	checkRoute := g != nil && g.failed != nil

	// enter attempts to place slot si into its 0-based target stage st.
	// The message's logical arrival timestamp is never touched here: it
	// was stamped when the message should have joined (trace arrival, or
	// service start + 1), so blocked retries keep accumulating waiting
	// time.
	enter := func(si int32, st int) int {
		m := &slots[si]
		var digit int
		if shiftDigits {
			digit = int(m.dest >> bits.TrailingZeros32(divs[st]) & kmask)
		} else {
			digit = int(m.dest/divs[st]) % k
		}
		var port int32
		lost, deflected := false, false
		switch {
		case checkRoute:
			port, lost, deflected = g.resolve(st, m.row, digit)
		case g != nil:
			port = g.next[st][int(m.row)*k+digit]
		case shiftDigits:
			port = (m.row<<logk | int32(digit)) & rowMask
		default:
			port = meta.NextRow(m.row, digit)
		}
		q := &queues[st*rows+int(port)]
		if !lost && caps[st] > 0 && int(q.n) >= caps[st] {
			if !drop {
				res.BlockedCycles++
				if sw != nil {
					sw.swBlock(st, port)
				}
				return blocked
			}
			lost = true
		}
		if lost {
			res.Dropped++
			if pc != nil {
				pc.dropSpan(si)
			}
			ar.freeSlots = append(ar.freeSlots, si)
			return droppedOut
		}
		if deflected {
			res.Deflected++
		}
		m.stage = int8(st + 1)
		m.row = port
		if q.n == q.size {
			ar.growQueue(st, q, caps[st])
		}
		q.push(ar.qstore[st], si)
		busy[st*words+int(port>>6)] |= 1 << (uint(port) & 63)
		if pc != nil {
			pc.enter(st)
		}
		if sw != nil {
			sw.swJoin(st, port)
		}
		return entered
	}

	finish := func(si int32) {
		m := &slots[si]
		if m.meas {
			res.Messages++
			res.TotalWait.Add(int(m.wsum))
			if res.StageCov != nil {
				base := int(si) * n
				for j := 0; j < n; j++ {
					vec[j] = float64(waits[base+j])
				}
				res.StageCov.Add(vec)
			}
		}
		if pc != nil {
			pc.finishObs(si, m.meas, int64(m.wsum))
		}
		ar.freeSlots = append(ar.freeSlots, si)
	}

	inNetwork := int64(0)
	exhausted := false
	covered := int64(0) // arrivals at cycles < covered are all buffered
	bufHead := 0        // next ar.buffered entry to inject
	maxInFlight := cfg.maxInFlight()
	drainLimit := cfg.drainLimit(meta.Horizon)
	for ; ; t++ {
		if fi != nil {
			if err := fi.AtCycle(ctx, t); err != nil {
				res.truncate(t, false)
				return res, err
			}
		}
		if t&ctxCheckMask == 0 {
			if pc != nil {
				pc.tick(cfg.Probe, t)
			}
			if err := ctx.Err(); err != nil {
				res.truncate(t, false)
				return res, err
			}
		}
		if inNetwork+int64(len(ar.held)) > maxInFlight {
			// Queued messages growing without bound: the divergence
			// signature of a configuration at or beyond m·λ = 1.
			res.truncate(t, true)
			return res, nil
		}
		// Pull schedule blocks until cycle t is fully covered, staging
		// arrivals (in trace order) for injection.
		for !exhausted && covered <= t {
			blk, err := src.Next()
			if err != nil {
				return nil, err
			}
			if blk == nil {
				exhausted = true
				break
			}
			if pc != nil {
				pc.blockPulls++
			}
			covered = int64(blk.End)
			res.Offered += int64(blk.Len())
			for i := 0; i < blk.Len(); i++ {
				si := alloc()
				slots[si] = cycleMsg{
					arrivedAt: blk.T[i],
					row:       blk.In[i],
					dest:      blk.Dest[i],
					svc:       blk.Svc[i],
					meas:      blk.Meas[i],
				}
				if pc != nil {
					pc.admit(si, blk.Meas[i], int64(blk.T[i]), blk.Dest[i])
				}
				ar.buffered = append(ar.buffered, si)
			}
		}

		// 1. Blocked deliveries retry first, in (stage, row) order: a
		// parked message has priority over this cycle's fresh traffic
		// into the same queue.
		for s := 0; parked != nil && s < n-1; s++ {
			pw := parkBits[s*words : (s+1)*words]
			for wi := range pw {
				for word := pw[wi]; word != 0; word &= word - 1 {
					r := wi<<6 | bits.TrailingZeros64(word)
					pi := s*rows + r
					out := enter(parked[pi], s+1)
					if out == blocked {
						continue
					}
					parked[pi] = -1
					pw[wi] &^= 1 << (uint(r) & 63)
					if sw != nil {
						sw.swLeave(s, int32(r))
					}
					if out == droppedOut {
						inNetwork--
					}
				}
			}
		}

		// 2. Injections: held arrivals and this cycle's fresh trace
		// arrivals compete in one shuffled batch.
		batch := append(ar.batch[:0], ar.held...)
		ar.held = ar.held[:0]
		for bufHead < len(ar.buffered) && int64(slots[ar.buffered[bufHead]].arrivedAt) == t {
			batch = append(batch, ar.buffered[bufHead])
			bufHead++
		}
		if bufHead == len(ar.buffered) {
			ar.buffered = ar.buffered[:0]
			bufHead = 0
		}
		ar.batch = batch
		rng.shuffle(batch)
		for _, si := range batch {
			switch enter(si, 0) {
			case entered:
				inNetwork++
				if pc != nil {
					pc.active(inNetwork)
				}
			case blocked:
				ar.held = append(ar.held, si)
			}
		}

		// 3. Fresh deliveries (service started at t-1) enter their next
		// stage; under the block policy a full queue parks the message
		// on its sender port.
		due := ar.delivery[t&1]
		ar.delivery[t&1] = due[:0]
		rng.shuffle(due)
		for _, si := range due {
			m := &slots[si]
			st := int(m.stage) // 0-based target = 1-based current
			switch enter(si, st) {
			case droppedOut:
				inNetwork--
			case blocked:
				parked[(st-1)*rows+int(m.row)] = si
				parkBits[(st-1)*words+int(m.row>>6)] |= 1 << (uint(m.row) & 63)
				if sw != nil {
					sw.swJoin(st-1, m.row) // parked on the sender port
				}
			}
		}

		// 4. Service: every free, unstalled server starts its
		// head-of-line message, visiting the non-empty queues in row
		// order.
		for s := 0; s < n; s++ {
			qs := queues[s*rows : (s+1)*rows]
			bw := busy[s*words : (s+1)*words]
			store := ar.qstore[s]
			var ps []int32
			if parked != nil && s < n-1 {
				ps = parked[s*rows : (s+1)*rows]
			}
			for wi := range bw {
				for word := bw[wi]; word != 0; word &= word - 1 {
					r := wi<<6 | bits.TrailingZeros64(word)
					q := &qs[r]
					if q.freeAt > t {
						continue
					}
					if ps != nil && ps[r] >= 0 {
						// Head-of-line blocking: the port's previous message
						// is still parked awaiting downstream space.
						continue
					}
					si := q.pop(store)
					if q.n == 0 {
						bw[wi] &^= 1 << (uint(r) & 63)
					}
					if pc != nil {
						pc.leave(s, 1)
					}
					if sw != nil {
						sw.swLeave(s, int32(r))
					}
					m := &slots[si]
					w := int32(t) - m.arrivedAt
					m.wsum += w
					if m.meas {
						res.StageWait[s].Add(float64(w))
						if res.HotWait != nil && m.dest == 0 {
							res.HotWait[s].Add(float64(w))
						}
						if wh != nil {
							wh[s].Add(int(w))
						}
						if g != nil && g.swh != nil {
							g.swh[s][g.swid[s][int32(r)]].Add(int(w))
						}
					}
					if trackWaits {
						waits[int(si)*n+s] = w
					}
					svc := int64(m.svc)
					if resample != nil {
						svc = int64(resample.Sample(rng.Float64(), rng.Float64()))
					}
					q.freeAt = t + svc
					if pc != nil {
						pc.stageObs(si, s, m.meas, int64(m.arrivedAt), t, t+svc)
					}
					if s+1 < n {
						// Stamp the logical arrival at the next stage now:
						// delivery is due at t+1 (cut-through) and blocked
						// retries must keep accruing wait from that cycle.
						m.arrivedAt = int32(t + 1)
						ar.delivery[(t+1)&1] = append(ar.delivery[(t+1)&1], si)
					} else {
						if checkRoute && m.row != int32(m.dest) {
							res.Misrouted++
						}
						finish(si)
						inNetwork--
					}
				}
			}
		}

		// 5. Occupancy sampling at end of cycle: queued messages plus an
		// in-service message whose packets are still draining. Ports run
		// in the outer loop so the stages' accumulators form n independent
		// dependency chains instead of one; each QueueDepth[s] still sees
		// its ports in order, so the sums are unchanged bit for bit.
		if cfg.TrackOccupancy && t >= int64(cfg.Warmup) && t < int64(meta.Horizon) {
			for r := 0; r < rows; r++ {
				for s := 0; s < n; s++ {
					q := &queues[s*rows+r]
					occ := int(q.n)
					if q.freeAt > t {
						occ++
					}
					res.QueueDepth[s].Add(float64(occ))
					if occ > res.MaxQueueDepth[s] {
						res.MaxQueueDepth[s] = occ
					}
				}
			}
		}

		if exhausted && bufHead == len(ar.buffered) && len(ar.held) == 0 && inNetwork == 0 {
			break
		}
		if t > drainLimit {
			// Still holding messages past the drain budget: saturated.
			res.truncate(t, true)
			return res, nil
		}
	}
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages completed")
	}
	return res, nil
}
