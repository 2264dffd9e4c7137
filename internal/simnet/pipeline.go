package simnet

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"banyan/internal/obs"
)

// This file splits one large kernel run over two cores. The clock makes
// the network feed-forward in time: a message served at stage s in
// cycle t joins stage s+1 at cycle t+1 or later, so stage s+1 at cycle
// t reads only what stage s wrote at cycles up to t-1. A run whose
// stages split at h therefore runs as two stage groups one cycle apart:
// group A (stages [0, h), with trace pulls and admission) on the
// caller's goroutine and group B (stages [h, n)) on a helper goroutine.
//
// The run's RNG is a token the groups hand back and forth. At cycle t,
// A takes its batches and makes their draws, hands B the RNG, serves its
// batches and sends B the messages its last stage sent on (the
// crossings). B, once it has served cycle t-1 and scheduled A's
// crossings of that cycle, takes and draws its own batches for cycle t,
// returns the RNG with its departure count, and serves. So A serves
// cycle t+1 while B serves cycle t, the draws are made in exactly the
// serial order — A's stages, then B's, cycle by cycle — and while one
// group holds the RNG the other is serving or scheduling crossings.
//
// Decisions that read the backlog — the in-flight guard, the idle skip
// and the end of the run — see B's departures only as of its last
// reply, an upper bound on the backlog; A asks B for its exact count
// (sync) only when the bound could change the decision. Skipping fewer
// idle cycles would change no result anyway: an empty cycle makes no
// draws.
//
// Everything observable equals the one-group run's: the statistics,
// the live and drift histograms, the trace spans (a sampled message's
// open span crosses with it) and the probe's high-water marks, which
// need the serial order of events at the boundary stage (see
// stageGroup.pendingLeave and pipeline.noteActive). Only the probe's
// free-list counters differ, since each group has its own slot store.

// splitCrossover is the offered load, in message-stages per cycle
// (rows·p·bulk·n), from which a run splits its stages over two cores.
// Below it the handoffs cost more than the second core wins back.
// Two-over-one wall-time ratios measured on a 2-vCPU VM, two runs
// each: k=2 n=12 p=0.8 (39k per cycle) 0.57–0.76, p=0.2 (9.8k)
// 0.71–0.82, p=0.1 (4.9k) 0.83–0.84; k=2 n=9 p=0.9 (4.1k) 0.85–0.88;
// k=4 n=8 p=0.5 (16k) 0.75–0.81; k=2 n=10 p=0.3 (3.1k) 0.95–1.09.
const splitCrossover = 4096

// minSplitStages is the fewest stages a run splits. A crossing costs
// about what four stage services do (the sender's copy plus the
// receiver's slot and schedule), so with few stages the helper's share
// pays for it only at high load: k=4 n=6 p=0.5 (12.3k per cycle)
// measured 0.72–0.89, but k=4 n=6 p=0.2 m=4 (4.9k) 1.00–1.17 at every
// split stage. Eight stages keep the rule to one load threshold.
const minSplitStages = 8

// splitStage returns the stage at which a kernel run splits into two
// groups, or 0 to run all its stages in one. Only the stage model
// splits — the graph engine's release schedule spans stages — and never
// under a chaos fault plan, whose injection points count the executed
// cycles and slot allocations of one serial loop. The arena's split seam
// forces a split on any network of two or more stages, or forbids one.
func splitStage(cfg *Config, meta *TraceMeta, g *graphNet, ar *arena) int {
	n := meta.Stages
	if g != nil || cfg.Fault != nil || n < 2 || ar.split < 0 {
		return 0
	}
	if ar.split > 0 {
		return min(ar.split, n-1)
	}
	if n < minSplitStages || runtime.GOMAXPROCS(0) < 2 {
		return 0
	}
	if offeredLoad(cfg, meta) < splitCrossover {
		return 0
	}
	return splitAt(n)
}

// offeredLoad is a run's offered load in message-stages per cycle,
// rows·p·bulk·n.
func offeredLoad(cfg *Config, meta *TraceMeta) float64 {
	return float64(meta.Rows) * cfg.P * float64(cfg.bulk()) * float64(meta.Stages)
}

// splitAt is the stage at which an n-stage run splits. A carries the
// trace generation and admission besides its stages, so it takes fewer
// of them: 5 of 12, 4 of 9 or 10, 3 of 8.
func splitAt(n int) int { return (5*n + 6) / 12 }

// crossings are the messages group A's last stage sent on during one
// cycle, by value, in service order: each with the cycle it joins B's
// first stage, its wait lane when per-stage waits are tracked, and its
// open trace span when it has one — the span's header and its first h
// stage entries, copied out of A's span slab into B's.
type crossings struct {
	recs       []xrec
	waits      []int32 // h entries per record (TrackStageWaits only)
	spans      []xspan
	spanStages []obs.StageSpan // h entries per span
}

type xrec struct {
	at int64
	m  mrec
}

type xspan struct {
	i    int // index of the span's message in recs
	head spanHead
}

func (x *crossings) reset() {
	x.recs = x.recs[:0]
	x.waits = x.waits[:0]
	x.spans = x.spans[:0]
	x.spanStages = x.spanStages[:0]
}

// prepare empties x for a run with room for a cycle's crossings, within
// the retention caps: at most one per port of the boundary stage, each
// with h waits when tracked.
func (x *crossings) prepare(rows, h int, trackWaits bool) {
	x.reset()
	if n := min(rows, maxRetainBatch); cap(x.recs) < n {
		x.recs = make([]xrec, 0, n)
	}
	if n := min(rows*h, maxRetainWaits); trackWaits && cap(x.waits) < n {
		x.waits = make([]int32, 0, n)
	}
}

func (x *crossings) trim() {
	if cap(x.recs) > maxRetainBatch {
		x.recs = nil
	}
	if cap(x.waits) > maxRetainWaits {
		x.waits = nil
	}
	if cap(x.spans) > maxRetainBatch || cap(x.spanStages) > maxRetainSpanStages {
		x.spans, x.spanStages = nil, nil
	}
}

// crossOut hands slot si, served at the group's last stage and due at
// the next group's first stage at cycle at, to the next group.
func (gr *stageGroup) crossOut(at int64, si int32) {
	x, st := gr.out, gr.st
	x.recs = append(x.recs, xrec{at: at, m: st.msl[si]})
	if gr.trackWaits {
		base := int(si) * gr.n
		x.waits = append(x.waits, st.waits[base:base+gr.hi]...)
	}
	if gr.pc != nil && gr.pc.spans.isSampled(si) {
		head, st := gr.pc.spans.close(si)
		x.spans = append(x.spans, xspan{i: len(x.recs) - 1, head: head})
		x.spanStages = append(x.spanStages, st[:gr.hi]...)
	}
	st.freeSlot(si)
	gr.crossed++
}

// receive schedules the previous group's crossings of one cycle into
// the group's first stage, in their service order. In the serial order
// they joined that stage's probe backlog before its batch of the same
// cycle left it, so the batch's leave is applied only now.
func (gr *stageGroup) receive(x *crossings) {
	if gr.pc != nil {
		gr.pc.enterN(gr.lo, int64(len(x.recs)))
		gr.pc.leave(gr.lo, gr.pendingLeave)
	}
	r := &gr.rings[gr.lo-1]
	lane := gr.lo
	sp := 0
	for i := range x.recs {
		si := gr.alloc()
		gr.st.msl[si] = x.recs[i].m
		if gr.trackWaits {
			copy(gr.st.waits[int(si)*gr.n:], x.waits[i*lane:(i+1)*lane])
		}
		if sp < len(x.spans) && x.spans[sp].i == i {
			st := gr.pc.spans.open(si, x.spans[sp].head)
			copy(st, x.spanStages[sp*lane:(sp+1)*lane])
			sp++
		}
		r.push(x.recs[i].at, si)
	}
}

// handoffPolls bounds how often a group polls for the other's message
// before it parks: about 5 µs at 5 ns a poll. The groups exchange
// messages several times a cycle, and waking a parked goroutine takes
// about as long as a cycle's work on a few stages. On k=2 n=12 (a
// 2-vCPU VM) 4096 polls ran in 0.96 the time of 1024 for up to 5% more
// CPU, and 256 polls took 1.31 the time at p=0.2. The poll does not yield:
// yielding let both groups share one processor while the other sat
// idle, since only a wake-up starts an idle one.
const handoffPolls = 1024

// polls returns how often a group may poll before it parks: handoffPolls
// while the process runs fewer engine runs than it has processors, and
// none once every processor has one — the other group may then be
// waiting for a processor, and polling would only delay it.
func polls() int {
	if ArenaLive() < int64(runtime.GOMAXPROCS(0)) {
		return handoffPolls
	}
	return 0
}

// pipeline links group A, run by the kernel's loop, to group B on the
// helper goroutine. Every method is a no-op on a nil pipeline, the
// one-group run.
type pipeline struct {
	b    *stageGroup
	rng  *krand
	x    *[2]crossings // A fills x[cur] while B reads the other
	cur  int
	hook func(t int64, drawn bool) // the arena's onHelperCycle seam

	toB  chan handoff
	toA  chan int64 // B's departures so far, once it has drawn
	done chan struct{}
	err  error // a panic recovered on the helper, set before done closes

	exits   int64 // B's departures as of its last reply
	waiting bool  // a handoff awaits its reply
	sent    bool  // x[cur] went to B, which is done with the other once it replies
	admAt   int64 // admissions through the last handed-off cycle that had any
	active  bool  // admAt awaits the reply that completes its backlog count
	stopped bool
	pc      *runProbe // A's probe view and B's, nil without a probe
	side    *runProbe
}

// handoff is one message to B: A's crossings of a cycle (x), a request
// for B's departure count (sync), or else the RNG for cycle t.
type handoff struct {
	t    int64
	x    *crossings
	sync bool
}

// HelperPanicError reports a panic recovered on the helper goroutine of
// a kernel run split over two cores. The run is abandoned and returns
// this error in place of its result.
type HelperPanicError struct {
	Value any
	Stack []byte
}

func (e *HelperPanicError) Error() string {
	return fmt.Sprintf("simnet: kernel helper goroutine panicked: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error.
func (e *HelperPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// startPipeline splits ga at stage h: ga keeps stages [0, h) and a new
// group on a helper goroutine takes the rest, with the arena's helper
// scratch.
func startPipeline(ga *stageGroup, h int, ar *arena, rng *krand) *pipeline {
	b := &stageGroup{kernelRun: ga.kernelRun, lo: h, hi: ga.hi, st: &ar.helper}
	ar.helper.prepare(ga.n, ga.trackWaits)
	ar.helper.reserve(ga.rows * (ga.hi - h))
	ga.hi = h
	for i := range ar.cross {
		ar.cross[i].prepare(ga.rows, h, ga.trackWaits)
	}
	ga.out = &ar.cross[0]
	// Once A has B's reply to cycle t's RNG, toB holds at most cycle t's
	// crossings, which B takes only after serving t; A then sends cycle
	// t+1's RNG and crossings before it awaits the next reply (a sync in
	// between is answered first). With room for three messages A never
	// blocks on a send.
	p := &pipeline{
		b: b, rng: rng, x: &ar.cross, hook: ar.onHelperCycle,
		toB: make(chan handoff, 3), toA: make(chan int64, 1), done: make(chan struct{}),
	}
	if ga.pc != nil {
		p.pc, p.side = ga.pc, ga.pc.split(h)
		b.pc = p.side
	}
	go p.helper()
	return p
}

// helper is group B's loop.
func (p *pipeline) helper() {
	defer close(p.done)
	defer func() {
		if r := recover(); r != nil {
			p.err = &HelperPanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	b := p.b
	for {
		h, ok := p.next()
		if !ok {
			return
		}
		if h.x != nil {
			b.receive(h.x)
			continue
		}
		if h.sync {
			p.toA <- b.gone
			continue
		}
		if p.hook != nil {
			p.hook(h.t, false)
		}
		b.begin()
		b.takeRings(h.t)
		b.pendingLeave = int64(b.st.bounds[1])
		b.draw(p.rng)
		p.toA <- b.gone
		if p.hook != nil {
			p.hook(h.t, true)
		}
		b.serve(h.t)
		if b.pc != nil && h.t&ctxCheckMask == 0 {
			b.pc.flushHists()
		}
	}
}

// next returns B's next message, polling before it parks; false once A
// has stopped the helper.
func (p *pipeline) next() (handoff, bool) {
	for i := polls(); i > 0; i-- {
		select {
		case h, ok := <-p.toB:
			return h, ok
		default:
		}
	}
	h, ok := <-p.toB
	return h, ok
}

// reply returns B's next reply, polling before it parks; false once
// the helper has stopped.
func (p *pipeline) reply() (int64, bool) {
	for i := polls(); i > 0; i-- {
		select {
		case e := <-p.toA:
			return e, true
		case <-p.done:
			return 0, false
		default:
		}
	}
	select {
	case e := <-p.toA:
		return e, true
	case <-p.done:
		return 0, false
	}
}

// departed returns B's departures as of its last reply.
func (p *pipeline) departed() int64 {
	if p == nil {
		return 0
	}
	return p.exits
}

// await takes the reply to the outstanding handoff, if any: the RNG is
// A's again. The reply to cycle t's handoff counts B's departures
// through cycle t-1, which completes the serial backlog after cycle t's
// admissions for the probe. B has then scheduled every crossing but the
// last cycle's, so ga collects the next cycle's in the other buffer.
func (p *pipeline) await(ga *stageGroup) error {
	if p == nil || !p.waiting {
		return nil
	}
	e, ok := p.reply()
	if !ok {
		return p.err
	}
	p.waiting = false
	p.exits = e
	if p.active {
		p.active = false
		p.pc.active(p.admAt - e)
	}
	if p.sent {
		p.sent = false
		p.cur ^= 1
		ga.out = &p.x[p.cur]
		ga.out.reset()
	}
	return nil
}

// noteActive records the admissions through the cycle about to be
// handed off, which had some.
func (p *pipeline) noteActive(admitted int64) {
	p.admAt, p.active = admitted, true
}

// sync makes departed exact: B replies once it has served every cycle
// handed to it.
func (p *pipeline) sync(ga *stageGroup) error {
	if p == nil {
		return nil
	}
	p.put(handoff{sync: true})
	p.waiting = true
	return p.await(ga)
}

// send hands B the RNG for cycle t.
func (p *pipeline) send(t int64) {
	p.put(handoff{t: t})
	p.waiting = true
}

// cross sends B ga's crossings of the cycle just served.
func (p *pipeline) cross(ga *stageGroup) {
	p.put(handoff{x: ga.out})
	p.sent = true
}

// put sends h to B. A helper that has stopped takes nothing more, so
// put then drops h, and the next await returns the helper's error.
func (p *pipeline) put(h handoff) {
	select {
	case p.toB <- h:
	case <-p.done:
	}
}

// stop ends the helper and waits for it, on every exit path of the run.
// B has then served every cycle and scheduled every crossing handed to
// it.
func (p *pipeline) stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	close(p.toB)
	<-p.done
	if p.pc != nil {
		p.pc.join(p.side)
	}
}
