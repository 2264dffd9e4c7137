package simnet

import (
	"context"
	"fmt"
	"math/rand/v2"

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

// RunLiteralSource executes the literal engine against an arrival
// source.
//
// Deprecated: call RunEngine(ctx, Literal, cfg, src).
func RunLiteralSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunEngine(context.Background(), Literal, cfg, src)
}

// cycleQueue is one output-port FIFO of the cycle loop.
type cycleQueue struct {
	items  []int32 // in-flight slot indices, FIFO
	head   int
	freeAt int64 // first cycle the server may start the next message
}

func (q *cycleQueue) size() int { return len(q.items) - q.head }

func (q *cycleQueue) push(i int32) { q.items = append(q.items, i) }

func (q *cycleQueue) pop() int32 {
	v := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// cycleMsg is the per-in-flight-message state of the cycle loop. Slots
// are recycled through a free list as messages finish or drop.
type cycleMsg struct {
	arrivedAt int32  // logical arrival cycle at the current stage's queue
	row       int32  // row of the queue the message occupies
	stage     int8   // 1-based stage the message occupies
	wsum      int32  // accumulated waiting time
	dest      uint32 // destination address
	svc       int16  // service requirement, cycles
	meas      bool
	waits     []int16
}

// runCycle is the cycle loop. caps[s] bounds stage s+1's queues
// (0 = infinite) and drop selects the overflow policy: true loses a
// message at a full queue, false blocks it. A nil g routes by the omega
// arithmetic of src's TraceMeta; a non-nil g routes through its wiring
// tables and applies its failure policy and per-switch telemetry. The
// per-cycle phases are:
//
//  1. retry blocked inter-stage deliveries, in (stage, row) order
//     (block policy only);
//  2. injections — held stage-1 arrivals plus this cycle's fresh trace
//     arrivals, shuffled together — each entering unless its stage-1
//     queue is full;
//  3. fresh deliveries (messages that started service at t-1), shuffled;
//     under the block policy a delivery into a full queue parks on its
//     sender port and rejoins phase 1 next cycle;
//  4. every unstalled free server starts its head-of-line message;
//  5. occupancy sampling, with Config.TrackOccupancy.
func runCycle(ctx context.Context, cfg *Config, src ArrivalSource, g *graphNet, caps []int, drop bool) (*Result, error) {
	// Outcomes of one attempt to enter a queue.
	const (
		entered = iota
		droppedOut
		blocked
	)
	meta := src.Meta()
	n := meta.Stages
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

	queues := make([][]cycleQueue, n)
	for s := range queues {
		queues[s] = make([]cycleQueue, meta.Rows)
	}
	// blockedSlot[s][r] parks the message served at stage s+1's output
	// row r whose delivery to the next stage is stalled; -1 when the
	// port is clear. The sender port cannot start another message while
	// one is parked, so at most one message is ever parked per port.
	// The drop policy never parks, and leaves it nil.
	var blockedSlot [][]int32
	if !drop {
		blockedSlot = make([][]int32, n-1)
		for s := range blockedSlot {
			blockedSlot[s] = make([]int32, meta.Rows)
			for r := range blockedSlot[s] {
				blockedSlot[s][r] = -1
			}
		}
	}

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		if g == nil {
			pc = newRunProbe(cfg, n, "literal")
		} else {
			pc = newRunProbe(cfg, n, "graph")
			pc.switchHW = g.hw
			pc.switchBlocked = g.blocked
		}
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists

	fi := cfg.Fault
	var slots []cycleMsg
	var freeSlots []int32
	alloc := func() int32 {
		if len(freeSlots) > 0 {
			i := freeSlots[len(freeSlots)-1]
			freeSlots = freeSlots[:len(freeSlots)-1]
			if pc != nil {
				pc.freeHits++
			}
			return i
		}
		if fi != nil {
			fi.OnSlotAlloc() // may panic with a typed injected error
		}
		slots = append(slots, cycleMsg{})
		if pc != nil {
			pc.slotAllocs++
		}
		return int32(len(slots) - 1)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1))
	resample := cfg.serviceSampler()

	// enter attempts to place slot si into its 0-based target stage st.
	// The message's logical arrival timestamp is never touched here: it
	// was stamped when the message should have joined (trace arrival, or
	// service start + 1), so blocked retries keep accumulating waiting
	// time.
	enter := func(si int32, st int) int {
		m := &slots[si]
		var port int32
		lost, deflected := false, false
		if g == nil {
			port = meta.NextRow(m.row, meta.DigitOf(m.dest, st+1))
		} else {
			port, lost, deflected = g.resolve(st, m.row, int(m.dest/g.div[st])%g.k)
		}
		q := &queues[st][port]
		if !lost && caps[st] > 0 && q.size() >= caps[st] {
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
			freeSlots = append(freeSlots, si)
			return droppedOut
		}
		if deflected {
			res.Deflected++
		}
		m.stage = int8(st + 1)
		m.row = port
		q.push(si)
		if pc != nil {
			pc.enter(st)
		}
		if sw != nil {
			sw.swJoin(st, port)
		}
		return entered
	}

	vec := make([]float64, n) // covariance scratch
	finish := func(si int32) {
		m := &slots[si]
		if m.meas {
			res.Messages++
			res.TotalWait.Add(int(m.wsum))
			if res.StageCov != nil {
				for j := 0; j < n; j++ {
					vec[j] = float64(m.waits[j])
				}
				res.StageCov.Add(vec)
			}
		}
		if pc != nil {
			pc.finishObs(si, m.meas, int64(m.wsum))
		}
		freeSlots = append(freeSlots, si)
	}

	var batch []int32
	var held []int32 // stage-1 arrivals waiting out a full first queue
	var delivery [2][]int32
	inNetwork := int64(0)
	exhausted := false
	covered := int64(0)  // arrivals at cycles < covered are all buffered
	var buffered []int32 // slots awaiting injection, trace order
	bufHead := 0
	checkRoute := g != nil && g.failed != nil
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
		if inNetwork+int64(len(held)) > maxInFlight {
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
				m := &slots[si]
				m.arrivedAt = blk.T[i]
				m.row = blk.In[i]
				m.stage = 0
				m.wsum = 0
				m.dest = blk.Dest[i]
				m.svc = blk.Svc[i]
				m.meas = blk.Meas[i]
				if cfg.TrackStageWaits {
					if cap(m.waits) < n {
						m.waits = make([]int16, n)
					}
					m.waits = m.waits[:n]
				}
				if pc != nil {
					pc.admit(si, m.meas, int64(blk.T[i]), m.dest)
				}
				buffered = append(buffered, si)
			}
		}

		// 1. Blocked deliveries retry first, in (stage, row) order: a
		// parked message has priority over this cycle's fresh traffic
		// into the same queue.
		for s, bs := range blockedSlot {
			for r, si := range bs {
				if si < 0 {
					continue
				}
				out := enter(si, s+1)
				if out == blocked {
					continue
				}
				bs[r] = -1
				if sw != nil {
					sw.swLeave(s, int32(r))
				}
				if out == droppedOut {
					inNetwork--
				}
			}
		}

		// 2. Injections: held arrivals and this cycle's fresh trace
		// arrivals compete in one shuffled batch.
		batch = append(batch[:0], held...)
		held = held[:0]
		for bufHead < len(buffered) && int64(slots[buffered[bufHead]].arrivedAt) == t {
			batch = append(batch, buffered[bufHead])
			bufHead++
		}
		if bufHead == len(buffered) {
			buffered = buffered[:0]
			bufHead = 0
		}
		rng.Shuffle(len(batch), func(a, b int) { batch[a], batch[b] = batch[b], batch[a] })
		for _, si := range batch {
			switch enter(si, 0) {
			case entered:
				inNetwork++
				if pc != nil {
					pc.active(inNetwork)
				}
			case blocked:
				held = append(held, si)
			}
		}

		// 3. Fresh deliveries (service started at t-1) enter their next
		// stage; under the block policy a full queue parks the message
		// on its sender port.
		slot := delivery[t&1]
		delivery[t&1] = delivery[t&1][:0]
		rng.Shuffle(len(slot), func(a, b int) { slot[a], slot[b] = slot[b], slot[a] })
		for _, si := range slot {
			m := &slots[si]
			st := int(m.stage) // 0-based target = 1-based current
			switch enter(si, st) {
			case droppedOut:
				inNetwork--
			case blocked:
				blockedSlot[st-1][m.row] = si
				if sw != nil {
					sw.swJoin(st-1, m.row) // parked on the sender port
				}
			}
		}

		// 4. Service: every free, unstalled server starts its
		// head-of-line message.
		for s := 0; s < n; s++ {
			qs := queues[s]
			var bs []int32
			if s < len(blockedSlot) {
				bs = blockedSlot[s]
			}
			for r := range qs {
				q := &qs[r]
				if q.freeAt > t || q.size() == 0 {
					continue
				}
				if bs != nil && bs[r] >= 0 {
					// Head-of-line blocking: the port's previous message
					// is still parked awaiting downstream space.
					continue
				}
				si := q.pop()
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
				if m.waits != nil {
					m.waits[s] = int16(w)
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
					delivery[(t+1)&1] = append(delivery[(t+1)&1], si)
				} else {
					if checkRoute && m.row != int32(m.dest) {
						res.Misrouted++
					}
					finish(si)
					inNetwork--
				}
			}
		}

		// 5. Occupancy sampling at end of cycle: queued messages plus an
		// in-service message whose packets are still draining.
		if cfg.TrackOccupancy && t >= int64(cfg.Warmup) && t < int64(meta.Horizon) {
			for s := 0; s < n; s++ {
				qs := queues[s]
				for r := range qs {
					occ := qs[r].size()
					if qs[r].freeAt > t {
						occ++
					}
					res.QueueDepth[s].Add(float64(occ))
					if occ > res.MaxQueueDepth[s] {
						res.MaxQueueDepth[s] = occ
					}
				}
			}
		}

		if exhausted && bufHead == len(buffered) && len(held) == 0 && inNetwork == 0 {
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
