package simnet

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"banyan/internal/dist"
	"banyan/internal/faultinject"
	"banyan/internal/stats"
)

// RunKernelSource executes the batch kernel against an arrival source.
//
// Deprecated: call RunEngine(ctx, Fast, cfg, src).
func RunKernelSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunEngine(context.Background(), Fast, cfg, src)
}

// runKernel is the batch kernel, the production fast engine: a
// batched, structure-of-arrays rewrite of the message-level algorithm
// in runReference. It mirrors runReference decision for decision —
// every RNG draw (one Fisher–Yates shuffle per non-empty (cycle, stage)
// batch, two uniforms per message when service is resampled), every
// statistics update and every guard fires in the identical order — so
// the two engines are byte-identical at every seed, while the kernel
// allocates nothing on the hot path:
//
//   - in-flight message state lives in an arena of flat slot
//     records (indices instead of pointerful structs), sized by the
//     in-flight population rather than the schedule block, so the
//     working set stays cache-resident and is reused across
//     replications;
//   - per-stage schedules are power-of-two rings of per-cycle cells,
//     each a list of fixed 64-slot chunks drawn from one flat array per
//     ring, so scheduling a message is one store into its cell's tail
//     chunk and draining a cycle is one memcpy per chunk; a drained
//     chunk goes straight to the next push, so a ring retains the
//     messages scheduled at once, not a whole batch per cell, and is
//     kept across runs even on a 4096-row network;
//   - slots are allocated lazily at the cycle a message enters stage 1,
//     not when its schedule block is pulled, so pulling a block is O(1)
//     bookkeeping plus the generator's own work; blocks are capped at
//     blockMessages messages, so the block the kernel reads by cursor is
//     still in cache from its generation, even on a 4096-row network;
//   - stages with nothing scheduled are skipped by a counter check, so
//     a cycle costs O(active stages + messages served), and runs of
//     cycles with an empty network are skipped in one step;
//   - routing uses shift/mask digit extraction when the radix is a
//     power of two (the divisor table otherwise), and the batch shuffle
//     is krand's Fisher–Yates, consuming draws exactly like
//     math/rand/v2's Shuffle.
//
// The stages are served by stage groups (stageGroup), each owning a
// contiguous range of stages. A group serves a cycle in two steps: it
// first takes every batch its stages have for the cycle and makes all
// of the cycle's draws for them in stage order (the shuffles, plus the
// resampled service times), then serves the batches. Taking a stage's
// batch before the stage below it is served changes nothing, because a
// message served at cycle t joins the next stage's schedule at t+1 or
// later. A run is one group over all its stages, except that a large
// network may split in two (pipeline.go): the caller's goroutine serves
// the first stages, with trace pulls and admission, and a helper
// goroutine the rest, one cycle behind. The RNG passes between the two
// so that the draws are made in the serial order, and the results —
// observability included — are those of one group.
//
// A batch is served by a lean loop: routing, port contention, the
// stage and total statistics, and the push to the next stage. With
// nothing observed that is all (fastBody). Otherwise the loop also
// notes each message's outcome — its wait and port — in arena scratch,
// and every observer switched on (drift and hot-spot waits, per-stage
// wait lanes, the probe, per-switch telemetry, the crossings to a
// helper group) reads the batch's outcomes in its own pass, in batch
// order, so that each accumulator sees what serving message by message
// gave it (serveStage).
//
// With a non-nil g the kernel runs the graph engine's committed mode
// (graph.go): each stage's routing comes from the wiring's next-row
// tables and digit divisors instead of the omega shift, failed links go
// through g.resolve, and the per-switch telemetry (backlog counters,
// SwitchWaitHists, SwitchSat) is kept alongside. Nothing else changes,
// so under the omega wiring the graph engine is byte-identical to the
// stage model by construction.
//
// The source must deliver blocks whose messages are ordered by arrival
// cycle (the ArrivalSource contract); the kernel consumes each block
// with a cursor instead of re-bucketing its messages.
func runKernel(ctx context.Context, cfg *Config, src ArrivalSource, ar *arena, g *graphNet) (*Result, error) {
	engine := "graph"
	if g == nil {
		engine = "fast"
	}
	meta := src.Meta()
	n := meta.Stages
	res := newResult(cfg, meta)

	ar.rng = krand{hi: cfg.Seed ^ 0xa5a5a5a5a5a5a5a5, lo: cfg.Seed + 1, pos: krandBufN}
	rng := &ar.rng
	ar.prepare(n, meta.Rows, cfg.TrackStageWaits)

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, engine, &ar.probe)
		pc.graph = g
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	if g != nil && cfg.TrackSwitches {
		defer func() { res.SwitchSat = g.switchSat(cfg) }()
	}
	ga := stageGroup{kernelRun: newKernelRun(cfg, meta, res, ar, g, pc), hi: n, st: &ar.groupScratch, pc: pc}
	rel, fi := ga.rel, ga.fi

	var p *pipeline
	if h := splitStage(cfg, meta, g, ar); h > 0 {
		p = startPipeline(&ga, h, ar, rng)
		defer p.stop()
	} else if offeredLoad(cfg, meta) < splitCrossover {
		ar.dropHelper()
	}
	// A cycle's batches hold at most a message per port at each stage
	// after the first, and a batch per input at the first.
	ga.st.reserve(meta.Rows * (cfg.bulk() + ga.hi - 1))

	admitted := int64(0) // messages that entered stage 1
	exhausted := false
	covered := int64(0) // arrivals at cycles < covered are all pulled
	maxInFlight := cfg.maxInFlight()
	drainLimit := cfg.drainLimit(meta.Horizon)

	// Current schedule block, consumed by cursor. The pull loop only
	// fires once every message of the previous block has been consumed:
	// covered > t holds after each cycle, so a new pull at cycle t
	// starts a block at exactly cycle t.
	var blkT, blkIn []int32
	var blkDest []uint32
	var blkSvc []int16
	var blkMeas []bool
	cur, blkLen := 0, 0

	for ; ; t++ {
		if err := p.await(&ga); err != nil {
			return nil, err
		}
		if fi != nil {
			// Armed chaos faults fire on the executed-cycle sequence, which
			// is deterministic for a config+seed; may panic, stall, or
			// return a typed injected error.
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
		// The backlog admitted less departed. A split run knows the
		// helper's departures a cycle late, so this reads an upper bound
		// there, made exact only when it would trip the guard.
		if admitted-ga.gone-p.departed() > maxInFlight {
			if err := p.sync(&ga); err != nil {
				return nil, err
			}
			if admitted-ga.gone-p.departed() > maxInFlight {
				// Backlog growing without bound: the divergence signature
				// of a configuration at or beyond m·λ = 1.
				res.truncate(t, true)
				return res, nil
			}
		}
		if t > drainLimit {
			// Still holding messages past the drain budget: saturated.
			res.truncate(t, true)
			return res, nil
		}
		if rel != nil {
			// Switch residencies ending by this cycle (including any in a
			// skipped idle gap) are released before any message joins a
			// switch at t.
			ar.batch = ga.g.release(rel, t, ar.batch)
		}
		// Pull schedule blocks until cycle t is fully covered.
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
			m := blk.Len()
			res.Offered += int64(m)
			blkT, blkIn, blkDest, blkSvc, blkMeas = blk.T, blk.In, blk.Dest, blk.Svc, blk.Meas
			cur, blkLen = 0, m
		}
		inFlight := res.Offered - ga.gone - p.departed()
		if inFlight > 0 && p != nil && admitted == res.Offered && admitted == ga.crossed {
			// Only the helper's stages hold messages, so whether the
			// network is empty turns on its exact count.
			if err := p.sync(&ga); err != nil {
				return nil, err
			}
			inFlight = res.Offered - ga.gone - p.departed()
		}
		if inFlight == 0 {
			if exhausted {
				break
			}
			// Nothing in flight and no arrival before covered: skip the
			// idle cycles in one step. The rings are all empty, so their
			// floors can jump with the clock (a helper's rings catch up
			// at their next take); no guard below could have fired
			// during the gap (arrival cycles never exceed the drain
			// limit, and the backlog is zero). The switch release
			// schedule is not empty — departed messages can still hold
			// their last switch — so its floor stays put: the release
			// call at cycle covered catches up on the gap's cycles
			// before anything joins a switch. A gap that passes a
			// context-poll boundary polls at the last one it passes, so
			// the probe's live view and a cancellation lag the clock by
			// at most one poll interval across idle stretches too.
			if covered > t+1 {
				ga.jumpFloors(covered)
				if b := (covered - 1) &^ ctxCheckMask; b > t {
					if pc != nil {
						pc.tick(cfg.Probe, b)
					}
					if err := ctx.Err(); err != nil {
						res.truncate(b, false)
						return res, err
					}
				}
				t = covered - 1
			}
			continue
		}

		// This cycle's arrivals are the block's next run of cursor
		// entries; allocate their slots in trace order (so probe
		// admission ordinals match the reference engine) and batch them
		// as stage 1's.
		ga.begin()
		st := ga.st
		for cur < blkLen && int64(blkT[cur]) == t {
			si := ga.alloc()
			ms := blkMeas[cur]
			st.msl[si] = mrec{
				dest: blkDest[cur],
				row:  blkIn[cur],
				svc:  blkSvc[cur],
				meas: ms,
			}
			if pc != nil {
				pc.admit(si, ms, t, blkDest[cur])
			}
			st.batch = append(st.batch, si)
			cur++
		}
		arrivals := len(st.batch)
		st.bounds[1] = int32(arrivals)
		ga.takeRings(t)
		if arrivals > 0 {
			admitted += int64(arrivals)
			if pc != nil {
				pc.enterN(0, int64(arrivals))
				if p == nil {
					pc.active(admitted - ga.gone)
				} else {
					p.noteActive(admitted)
				}
			}
		}
		ga.draw(rng)
		if p != nil {
			p.send(t)
		}
		ga.serve(t)
		if p != nil {
			p.cross(&ga)
		}
	}
	if rel != nil {
		// Drained: release the residencies still pending after the last
		// departure, so every switch backlog counter ends at zero.
		ar.batch = ga.g.release(rel, math.MaxInt64-1, ar.batch)
	}
	p.stop()
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages (p too small or horizon too short)")
	}
	return res, nil
}

// kernelRun is what every stage group of a kernel run reads: the
// network's routing tables, the optional features switched on, and the
// state shared by stage index — the Result, the schedule rings and the
// per-port free times — of which each group touches only its own
// stages' entries (and the last group the whole-message statistics).
type kernelRun struct {
	res        *Result
	n, rows, k int

	// Routing: shift/mask when the radix (hence the row count, a power
	// of k) is a power of two, the divisor table otherwise. The graph
	// wiring brings its own digit divisors (flip consumes digits
	// least-significant first); they are powers of k too.
	pow2    bool
	logk    uint
	kmask   uint32
	rowMask int32
	shifts  []uint
	divs    []uint32

	// Graph wiring: the failure policy, the per-switch wait hists and
	// the per-switch release schedule. A message routed to a port at
	// cycle t with committed start s occupies its switch over [t, s]; rel
	// holds the switch's flat counter index at s+1, when the residency
	// ends. rel exists only when the per-switch counters do.
	g        *graphNet
	swh      [][]*stats.Hist
	rel      *kring
	haveFail bool

	resample   *dist.Sampler
	trackWaits bool
	wh         []*stats.Hist
	fi         *faultinject.RepFault

	// fastBody selects the specialized service loop: nothing optional is
	// switched on, so the per-message body reduces to routing, port
	// contention and the two mandatory statistics. On a graph wiring that
	// also means no failed links and no per-switch telemetry.
	fastBody bool

	rings []kring
	free  []int64
	vec   []float64
}

func newKernelRun(cfg *Config, meta *TraceMeta, res *Result, ar *arena, g *graphNet, pc *runProbe) kernelRun {
	n, k := meta.Stages, meta.K
	kr := kernelRun{
		res: res, n: n, rows: meta.Rows, k: k,
		divs:       meta.digitDiv,
		g:          g,
		resample:   cfg.serviceSampler(),
		trackWaits: cfg.TrackStageWaits,
		wh:         cfg.WaitHists,
		fi:         cfg.Fault,
		rings:      ar.rings,
		free:       ar.free,
		vec:        ar.vec,
	}
	if g != nil {
		kr.divs = g.div
		kr.swh, kr.haveFail = g.swh, g.failed != nil
		if g.load != nil {
			kr.rel = &ar.rel
			kr.rel.reset(ar.ringChunk)
		}
	}
	kr.pow2 = k&(k-1) == 0
	if kr.pow2 {
		kr.logk = uint(bits.TrailingZeros32(uint32(k)))
		kr.kmask = uint32(k - 1)
		kr.rowMask = int32(meta.Rows - 1)
		kr.shifts = make([]uint, n)
		for j := 0; j < n; j++ {
			kr.shifts[j] = kr.logk * uint(n-1-j)
			if g != nil {
				kr.shifts[j] = uint(bits.TrailingZeros32(kr.divs[j]))
			}
		}
	}
	kr.fastBody = pc == nil && kr.resample == nil && !kr.trackWaits &&
		res.HotWait == nil && kr.wh == nil && !kr.haveFail && kr.rel == nil && kr.swh == nil
	return kr
}

// digit returns the routing digit dest consumes at the 0-based stage.
func (kr *kernelRun) digit(stage int, dest uint32) int {
	if kr.pow2 {
		return int((dest >> kr.shifts[stage]) & kr.kmask)
	}
	return int(dest/kr.divs[stage]) % kr.k
}

// stageGroup serves stages [lo, hi) of a kernel run: it owns the slot
// store of the messages inside those stages, the batches and draws of
// the cycle it is serving, and its stages' share of the run probe.
// A message leaving stage hi-1 exits the network when hi is the last
// stage, and otherwise crosses to the next group by value (out).
type stageGroup struct {
	kernelRun
	lo, hi int
	st     *groupScratch
	pc     *runProbe

	out     *crossings // this cycle's crossings to the next group; nil in the last group
	gone    int64      // messages that left the network from the group's stages
	crossed int64      // messages handed on to the next group
	svcPos  int        // next unserved entry of st.svc

	// pendingLeave is the size of stage lo's batch at the group's last
	// cycle (a group with lo > 0 only). The serial order takes it out of
	// the stage's probe backlog after the crossings of that cycle have
	// joined it, which arrive once the previous group has served it.
	pendingLeave int64
}

// begin starts the group's next cycle with no batches.
func (gr *stageGroup) begin() {
	gr.st.batch = gr.st.batch[:0]
	gr.st.bounds[0] = 0
}

// alloc hands out a free slot of the group's store.
func (gr *stageGroup) alloc() int32 {
	st := gr.st
	if si := st.freeHead; si >= 0 {
		st.freeHead = int32(st.msl[si].dest)
		if gr.pc != nil {
			gr.pc.freeHits++
		}
		return si
	}
	if gr.fi != nil {
		gr.fi.OnSlotAlloc() // may panic with a typed injected error
	}
	if st.used == len(st.msl) {
		st.growSlots(gr.n, gr.trackWaits)
	}
	si := int32(st.used)
	st.used++
	if gr.pc != nil {
		gr.pc.slotAllocs++
	}
	return si
}

// takeRings appends cycle t's batches of the group's stages after
// stage 1, which the caller has batched already when the group holds it.
func (gr *stageGroup) takeRings(t int64) {
	st := gr.st
	for s := max(gr.lo, 1); s < gr.hi; s++ {
		if r := &gr.rings[s-1]; r.count == 0 {
			r.floor = t + 1
		} else {
			st.batch = r.take(t, st.batch)
		}
		st.bounds[s-gr.lo+1] = int32(len(st.batch))
	}
}

// draw makes the cycle's draws for the group's stages in stage order:
// each batch's shuffle — the random service order among simultaneous
// arrivals — then, when service is resampled, two uniforms per message
// that will be served (a message a failed link drops draws none).
func (gr *stageGroup) draw(rng *krand) {
	st := gr.st
	st.svc = st.svc[:0]
	for i := 0; i < gr.hi-gr.lo; i++ {
		bk := st.batch[st.bounds[i]:st.bounds[i+1]]
		if len(bk) > 1 {
			rng.shuffle(bk) // fewer than two messages draw nothing
		}
		if gr.resample == nil {
			continue
		}
		for _, si := range bk {
			if gr.haveFail {
				m := &st.msl[si]
				if _, dropped, _ := gr.g.resolve(gr.lo+i, m.row, gr.digit(gr.lo+i, m.dest)); dropped {
					continue
				}
			}
			st.svc = append(st.svc, int64(gr.resample.Sample(rng.Float64(), rng.Float64())))
		}
	}
}

// serve serves the cycle's batches, stage by stage.
func (gr *stageGroup) serve(t int64) {
	st := gr.st
	gr.svcPos = 0
	for i := 0; i < gr.hi-gr.lo; i++ {
		bk := st.batch[st.bounds[i]:st.bounds[i+1]]
		if len(bk) == 0 {
			continue
		}
		if gr.pc != nil && (i > 0 || gr.lo == 0) {
			gr.pc.leave(gr.lo+i, int64(len(bk)))
		}
		gr.serveStage(t, gr.lo+i, bk)
	}
}

// jumpFloors moves the floors of the group's empty rings to cycle c.
func (gr *stageGroup) jumpFloors(c int64) {
	for s := max(gr.lo, 1); s < gr.hi; s++ {
		gr.rings[s-1].floor = c
	}
}

// serveStage serves one (cycle t, stage) batch in its shuffled order.
func (gr *stageGroup) serveStage(t int64, stage int, bk []int32) {
	res := gr.res
	st := gr.st
	msl := st.msl
	n, rowsN, k := gr.n, gr.rows, gr.k
	pow2, logk, kmask, rowMask := gr.pow2, gr.logk, gr.kmask, gr.rowMask
	stageFree := gr.free[stage*rowsN : (stage+1)*rowsN]
	sw := &res.StageWait[stage]
	gone := gr.gone

	// A message served here moves on through rg, crosses to the next
	// group (rg nil, not last) or exits the network (last).
	last := stage+1 == n
	var rg *kring
	if stage+1 < gr.hi {
		rg = &gr.rings[stage]
	}
	var shift uint
	var div uint32
	if pow2 {
		shift = gr.shifts[stage]
	} else {
		div = gr.divs[stage]
	}
	var nextTbl []int32
	if gr.g != nil {
		nextTbl = gr.g.next[stage]
	}
	if gr.fastBody && nextTbl != nil {
		// The specialized loop below, with the port looked up in the
		// wiring's next-row table instead of the omega shift. A graph
		// wiring never splits, so a message here moves on or exits.
		for _, si := range bk {
			m := &msl[si]
			var port int32
			if pow2 {
				port = nextTbl[m.row<<logk|int32((m.dest>>shift)&kmask)]
			} else {
				port = nextTbl[int(m.row)*k+int(m.dest/div)%k]
			}
			s := t
			if f := stageFree[port]; f > s {
				s = f
			}
			stageFree[port] = s + int64(m.svc)
			w := int32(s - t)
			m.wsum += w
			if m.meas {
				sw.Add(float64(w))
			}
			if rg != nil {
				m.row = port
				rg.push(s+1, si)
			} else {
				if m.meas {
					res.Messages++
					res.TotalWait.Add(int(m.wsum))
				}
				st.freeSlot(si)
				gone++
			}
		}
		gr.gone = gone
		return
	}
	if gr.fastBody {
		// Specialized service loop for the plain configuration (no
		// probe, no resampling, no hot spot, no wait hists, no per-stage
		// wait tracking). Every statistics update below appears in the
		// observed body's core loop in the same order on the same values,
		// so the two are byte-identical; what the specialization buys is
		// a branch-free body the compiler can register-allocate tightly,
		// on the loop that runs once per message per stage.
		for _, si := range bk {
			m := &msl[si]
			var port int32
			if pow2 {
				port = (m.row<<logk | int32((m.dest>>shift)&kmask)) & rowMask
			} else {
				digit := int(m.dest/div) % k
				port = int32((int(m.row)*k + digit) % rowsN)
			}
			s := t
			if f := stageFree[port]; f > s {
				s = f
			}
			stageFree[port] = s + int64(m.svc)
			w := int32(s - t)
			m.wsum += w
			if m.meas {
				sw.Add(float64(w))
			}
			if rg != nil {
				m.row = port
				rg.push(s+1, si)
			} else if !last {
				m.row = port
				gr.crossOut(s+1, si)
			} else {
				if m.meas {
					res.Messages++
					res.TotalWait.Add(int(m.wsum))
				}
				st.freeSlot(si)
				gone++
			}
		}
		gr.gone = gone
		return
	}

	// The observed body: a core loop as lean as the plain ones serves the
	// batch and notes each message's outcome (port -1: dropped at a
	// failed link). Each observer switched on then makes its own pass
	// over the outcomes in batch order, so every accumulator sees the
	// values, in the order, that serving message by message gave it; the
	// crossings go last, carrying complete spans and wait lanes, and the
	// slots of the messages that left are freed after every pass has
	// read them. A message starts service at t plus its wait.
	out := st.outcomes(len(bk))
	rs, pos0 := st.svc, gr.svcPos
	pos, drops := pos0, 0
	for i, si := range bk {
		m := &msl[si]
		var port int32
		if nextTbl != nil {
			var dropped, deflected bool
			port, dropped, deflected = gr.g.resolve(stage, m.row, gr.digit(stage, m.dest))
			if dropped {
				res.Dropped++
				out[i] = outcome{port: -1}
				drops++
				continue
			}
			if deflected {
				res.Deflected++
			}
		} else if pow2 {
			port = (m.row<<logk | int32((m.dest>>shift)&kmask)) & rowMask
		} else {
			port = int32((int(m.row)*k + int(m.dest/div)%k) % rowsN)
		}
		s := t
		if f := stageFree[port]; f > s {
			s = f
		}
		svc := int64(m.svc)
		if gr.resample != nil {
			svc = rs[pos]
			pos++
		}
		stageFree[port] = s + svc
		w := int32(s - t)
		m.wsum += w
		if m.meas {
			sw.Add(float64(w))
		}
		out[i] = outcome{wait: w, port: port, meas: m.meas}
		if !last {
			m.row = port
			if rg != nil {
				rg.push(s+1, si)
			}
		} else {
			if gr.haveFail && port != int32(m.dest) {
				res.Misrouted++
			}
			if m.meas {
				res.Messages++
				res.TotalWait.Add(int(m.wsum))
			}
		}
	}
	gr.svcPos = pos

	if hot, whS := res.HotWait != nil, gr.wh != nil; hot || whS {
		for i, si := range bk {
			if o := out[i]; o.meas && o.port >= 0 {
				if hot && msl[si].dest == 0 {
					res.HotWait[stage].Add(float64(o.wait))
				}
				if whS {
					gr.wh[stage].Add(int(o.wait))
				}
			}
		}
	}
	if gr.trackWaits {
		for i, si := range bk {
			if o := out[i]; o.port >= 0 {
				lane := st.waits[int(si)*n : int(si)*n+n]
				lane[stage] = o.wait
				if last && o.meas {
					for j, w := range lane {
						gr.vec[j] = float64(w)
					}
					res.StageCov.Add(gr.vec)
				}
			}
		}
	}
	if pc := gr.pc; pc != nil {
		pc.serveBatch(t, stage, last, bk, out, msl, rs[pos0:pos])
		// Only this batch's pushes touch the next stage's backlog until
		// that stage is served, so one rise by their count leaves the
		// high-water mark one rise per message would.
		if rg != nil {
			pc.enterN(stage+1, int64(len(bk)-drops))
		}
	}
	if gr.g != nil && (gr.swh != nil || gr.rel != nil) {
		gr.g.joinBatch(t, stage, out, gr.swh, gr.rel)
	}
	if rg == nil && !last {
		for i, si := range bk {
			gr.crossOut(t+int64(out[i].wait)+1, si)
		}
	}
	if last || drops > 0 {
		for i, si := range bk {
			if last || out[i].port < 0 {
				st.freeSlot(si)
				gone++
			}
		}
	}
	gr.gone = gone
}
