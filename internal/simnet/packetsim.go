package simnet

import (
	"context"
	"fmt"
	"math/rand/v2"

	"banyan/internal/stats"
)

// literalQueue is one output-port FIFO of the literal engine.
type literalQueue struct {
	items  []int32 // in-flight slot indices, FIFO
	head   int
	freeAt int64 // first cycle the server may start the next message
}

func (q *literalQueue) size() int { return len(q.items) - q.head }

func (q *literalQueue) push(i int32) { q.items = append(q.items, i) }

func (q *literalQueue) pop() int32 {
	v := q.items[q.head]
	q.head++
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	return v
}

// literalMsg is the per-in-flight-message state of the literal engine.
// Slots are recycled through a free list as messages finish or drop.
type literalMsg struct {
	arrivedAt int32  // arrival cycle at the current stage's queue
	row       int32  // row of the queue the message occupies
	stage     int8   // 1-based stage the message occupies
	wsum      int32  // accumulated waiting time
	dest      uint32 // destination address
	svc       int16  // service requirement, cycles
	meas      bool
	waits     []int16
}

// RunLiteral executes the cycle-driven packet-level engine on a prepared
// materialized trace. RunLiteral and RunLiteralSource produce identical
// statistics at the same seed.
func RunLiteral(cfg *Config, tr *Trace) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return RunLiteralSource(cfg, tr.Source())
}

// RunLiteralSource executes the cycle-driven packet-level engine against
// an arrival source, pulling schedule blocks on demand so peak memory is
// bounded by the in-flight message count. It models every output queue
// explicitly, cycle by cycle: trace messages enter their stage-1 queue at
// their arrival cycle, a queue whose server is free starts its
// head-of-line message (recording the wait), and a message starting
// service at cycle s is delivered to its next-stage queue at cycle s+1
// (cut-through). Simultaneous arrivals at a queue are ordered uniformly
// at random, realizing the random batch-service discipline assumed by the
// analysis.
//
// With Config.BufferCap > 0, a message arriving at a queue already holding
// BufferCap messages is dropped and counted in Result.Dropped — the
// finite-buffer extension the paper leaves as future work. With
// BufferCap == 0 this engine is statistically identical to the fast
// engine; the test suite drives both from one trace and compares.
func RunLiteralSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunLiteralSourceCtx(context.Background(), cfg, src)
}

// RunLiteralSourceCtx is RunLiteralSource with cancellation and
// saturation guards, under the same contract as RunSourceCtx: ctx
// cancellation returns a Truncated partial result plus ctx.Err(), while
// the deterministic budgets (Config.MaxInFlight, Config.DrainCycles)
// return a Truncated/Unstable result with a nil error.
func RunLiteralSourceCtx(ctx context.Context, cfg *Config, src ArrivalSource) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.requireStageModel("literal"); err != nil {
		return nil, err
	}
	meta := src.Meta()
	n := meta.Stages
	res := &Result{
		Rows:      meta.Rows,
		Wrapped:   meta.Wrapped,
		StageWait: make([]stats.Welford, n),
	}
	if cfg.TrackStageWaits {
		res.StageCov = stats.NewCovMatrix(n)
	}
	if cfg.HotModule > 0 {
		res.HotWait = make([]stats.Welford, n)
	}

	queues := make([][]literalQueue, n)
	for s := range queues {
		queues[s] = make([]literalQueue, meta.Rows)
	}

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, "literal")
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists

	fi := cfg.Fault
	var slots []literalMsg
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
		slots = append(slots, literalMsg{})
		if pc != nil {
			pc.slotAllocs++
		}
		return int32(len(slots) - 1)
	}

	rng := rand.New(rand.NewPCG(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1))
	resample := cfg.serviceSampler()
	if cfg.TrackOccupancy {
		res.QueueDepth = make([]stats.Welford, n)
		res.MaxQueueDepth = make([]int, n)
	}

	// enter places slot si into its stage-st queue (1-based) at cycle t.
	// It reports whether the message was dropped at a full buffer.
	enter := func(si int32, st int, t int64) (dropped bool) {
		m := &slots[si]
		row := meta.NextRow(m.row, meta.DigitOf(m.dest, st))
		q := &queues[st-1][row]
		if cfg.BufferCap > 0 && q.size() >= cfg.BufferCap {
			res.Dropped++
			if pc != nil {
				pc.dropSpan(si)
			}
			freeSlots = append(freeSlots, si)
			return true
		}
		m.stage = int8(st)
		m.row = row
		m.arrivedAt = int32(t)
		q.push(si)
		if pc != nil {
			pc.enter(st - 1)
		}
		return false
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

	var batch []int32       // stage-1 entrants this cycle
	var delivery [2][]int32 // two-slot ring of next-cycle deliveries
	inNetwork := int64(0)
	exhausted := false
	covered := int64(0)  // arrivals at cycles < covered are all buffered
	var buffered []int32 // slots awaiting injection, trace order
	bufHead := 0
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
		if inNetwork > maxInFlight {
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

		// 1. New trace arrivals enter stage 1 (random order within the
		// cycle).
		batch = batch[:0]
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
			if !enter(si, 1, t) {
				inNetwork++
				if pc != nil {
					pc.active(inNetwork)
				}
			}
		}

		// 2. Deliveries scheduled for this cycle enter their next stage.
		slot := delivery[t&1]
		delivery[t&1] = delivery[t&1][:0]
		rng.Shuffle(len(slot), func(a, b int) { slot[a], slot[b] = slot[b], slot[a] })
		for _, si := range slot {
			st := int(slots[si].stage) + 1
			if enter(si, st, t) {
				inNetwork-- // dropped mid-network
			}
		}

		// 3. Free servers start their head-of-line messages.
		for s := 0; s < n; s++ {
			qs := queues[s]
			for r := range qs {
				q := &qs[r]
				if q.freeAt > t || q.size() == 0 {
					continue
				}
				si := q.pop()
				if pc != nil {
					pc.leave(s, 1)
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
					delivery[(t+1)&1] = append(delivery[(t+1)&1], si)
				} else {
					finish(si)
					inNetwork--
				}
			}
		}

		// 4. Occupancy sampling at end of cycle: queued messages plus an
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

		if exhausted && bufHead == len(buffered) && inNetwork == 0 {
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
