package simnet

import "banyan/internal/obs"

// runProbe accumulates one run's engine instrumentation in plain local
// counters — no synchronization on the hot path — and flushes them to
// the shared obs.SimProbe once when the run finishes (plus periodic
// ticks on the context-poll cadence, which keep the cycles/sec meter
// and the live histograms current). It exists only when Config.Probe is
// set; a nil runProbe means the engines skip every instrumentation
// branch.
//
// "Backlog" per stage counts messages currently held for that stage:
// queued at a stage's output ports in the literal engine, scheduled in
// a stage's pending buckets in the fast engine. Either way the
// high-water mark is the figure that sizes real buffers.
type runProbe struct {
	lastFlush  int64 // cycles already reported via AddCycles
	blockPulls int64
	freeHits   int64
	slotAllocs int64
	maxActive  int64
	stageLoad  []int64
	stageHW    []int64

	// graph is the graph engine's routing state, whose per-switch
	// counters the flush reports with their saturation verdicts at the
	// config's SatDepth (satDepth); nil for the stage-model engines. The
	// probe keeps the two config values it reads, not the config: the
	// probe lives on the heap, and a config it pointed to would too.
	graph    *graphNet
	satDepth int
	seed     uint64

	// Distributional telemetry (Probe.Hists / Probe.Tracer); all nil
	// when the probe carries neither, so the hooks below reduce to a
	// couple of nil checks. The live histograms are fed through hbuf,
	// run-local buffers flushed on every tick and at the end of the run.
	hists   []*obs.Hist // live waiting-time histograms: per stage (0-based), then the total
	hbuf    []obs.HistBuf
	tracer  *obs.Tracer
	sampleN int64
	measSeq int64     // measured-message ordinal in trace order
	spans   *spanSlab // the open spans of this view's slot store, in scratch
	scr     *probeScratch
	stages  int
	engine  string

	// histLo and histHi bound the histogram buffers this view owns and
	// flushes: all of them, or one stage group's share in a split run.
	histLo, histHi int
}

// probeScratch is the reusable scratch of a run's probe: the histogram
// buffers (one per stage, then one for the total), the open trace spans
// and the graph engine's per-switch saturation verdicts. The engines
// keep it in their arena, so back-to-back probed runs allocate none of
// them.
type probeScratch struct {
	hbuf        []obs.HistBuf
	spans       spanSlab
	helperSpans spanSlab // the helper stage group's open spans in a split kernel run
	sat         [][]bool
}

// spanSlab holds the open trace spans of one slot store. An open span
// is a handle: an index into heads, its message's header, and into
// stages, its stage entries at stride stages per handle. Closing or
// dropping a span puts its handle on the free list for the next span
// to reuse, and the sampled-slot bitset, with handle for the slot →
// handle lookup behind it, says which slots hold one. Every array keeps
// its capacity across runs, so a warm traced run opens, fills and
// closes spans without allocating; the tracer copies a closed span's
// entries into its own ring.
type spanSlab struct {
	sampled []uint64        // bitset of the slots with an open span
	handle  []int32         // handle[si]: slot si's span, valid where its bit is set
	heads   []spanHead      // by handle
	stages  []obs.StageSpan // handle h's entries are stages[h*stride : (h+1)*stride]
	free    []int32         // released handles, the last released last
	stride  int
}

// spanHead is what an open span knows of its message before it leaves
// the network; the run supplies the rest (seed, engine) at close.
type spanHead struct {
	msg, arrival int64
	dest         uint32
}

// reset empties the slab for a run of the given stage count. Nothing a
// previous run left open — a cancelled or truncated run stops with
// spans in flight — survives: every bit is clear, every handle free.
func (sl *spanSlab) reset(stride int) {
	sl.sampled = sl.sampled[:0]
	sl.handle = sl.handle[:0]
	sl.heads = sl.heads[:0]
	sl.stages = sl.stages[:0]
	sl.free = sl.free[:0]
	sl.stride = stride
}

// open files a span for slot si and returns its stage entries, zeroed.
func (sl *spanSlab) open(si int32, head spanHead) []obs.StageSpan {
	if w := int(si >> 6); w >= len(sl.sampled) {
		n := w + 1 - len(sl.sampled)
		sl.sampled = grown(sl.sampled, n)
		sl.handle = grown(sl.handle, 64*n)
	}
	var h int32
	if f := len(sl.free); f > 0 {
		h = sl.free[f-1]
		sl.free = sl.free[:f-1]
	} else {
		h = int32(len(sl.heads))
		sl.heads = grown(sl.heads, 1)
		sl.stages = grown(sl.stages, sl.stride)
	}
	sl.heads[h] = head
	sl.sampled[si>>6] |= 1 << (uint(si) & 63)
	sl.handle[si] = h
	st := sl.entries(si)
	clear(st)
	return st
}

// isSampled reports whether slot si holds an open span. Only about one
// stage visit in sampleN gets past the bit test to the handle.
func (sl *spanSlab) isSampled(si int32) bool {
	w := int(si >> 6)
	return w < len(sl.sampled) && sl.sampled[w]&(1<<(uint(si)&63)) != 0
}

// entries returns the stage entries of slot si's open span.
func (sl *spanSlab) entries(si int32) []obs.StageSpan {
	off := int(sl.handle[si]) * sl.stride
	return sl.stages[off : off+sl.stride : off+sl.stride]
}

// close removes slot si's open span and returns its header and stage
// entries, which stay intact until the next open reuses the handle.
func (sl *spanSlab) close(si int32) (spanHead, []obs.StageSpan) {
	sl.sampled[si>>6] &^= 1 << (uint(si) & 63)
	h := sl.handle[si]
	sl.free = append(sl.free, h)
	return sl.heads[h], sl.entries(si)
}

// trim drops the slab's storage past the retention caps.
func (sl *spanSlab) trim() {
	if cap(sl.sampled) > bitmapWords(maxRetainSlots) {
		sl.sampled, sl.handle = nil, nil
	}
	if cap(sl.stages) > maxRetainSpanStages {
		sl.heads, sl.stages, sl.free = nil, nil, nil
	}
}

func newRunProbe(cfg *Config, stages int, engine string, scr *probeScratch) *runProbe {
	pc := &runProbe{
		stageLoad: make([]int64, stages),
		stageHW:   make([]int64, stages),
		scr:       scr,
		stages:    stages,
		engine:    engine,
		satDepth:  cfg.satDepth(),
		seed:      cfg.Seed,
		histHi:    stages + 1,
	}
	if hs := cfg.Probe.Hists; hs != nil {
		pc.hists = append(hs.Stages(stages), hs.Total())
		scr.hbuf = resized(scr.hbuf, stages+1)
		clear(scr.hbuf)
		pc.hbuf = scr.hbuf
	}
	pc.spans = &scr.spans
	pc.spans.reset(stages)
	if tr := cfg.Probe.Tracer; tr != nil {
		pc.tracer = tr
		pc.sampleN = tr.SampleN()
	}
	return pc
}

// admit is called for every message in trace order as it is pulled from
// the arrival source; it assigns measured messages their ordinal and
// opens a span for the sampled ones. Both engines consume schedule
// blocks in trace order, so a message gets the same ordinal — and the
// same sampling decision — in either engine. A span's header and stage
// entries live in the slab until the message leaves the network, when
// the tracer copies them into its ring.
func (pc *runProbe) admit(si int32, meas bool, arrival int64, dest uint32) {
	if !meas || pc.tracer == nil {
		return
	}
	seq := pc.measSeq
	pc.measSeq++
	if seq%pc.sampleN != 0 {
		return
	}
	pc.spans.open(si, spanHead{msg: seq, arrival: arrival, dest: dest})
}

// stageObs records one service start at a stage (0-based): the message
// enqueued at cycle enq begins service at start and holds the output
// port until depart. Feeds the live histograms (measured messages only,
// matching the reported statistics) and any open span.
func (pc *runProbe) stageObs(si int32, stage int, meas bool, enq, start, depart int64) {
	if meas && pc.hists != nil {
		pc.hbuf[stage].Record(pc.hists[stage], start-enq)
	}
	if pc.spans.isSampled(si) {
		pc.spanStage(si, stage, enq, start, depart)
	}
}

// spanStage fills the stage entry of slot si's open span.
func (pc *runProbe) spanStage(si int32, stage int, enq, start, depart int64) {
	pc.spans.entries(si)[stage] = obs.StageSpan{
		Stage: stage + 1, Enqueue: enq, Start: start, Depart: depart,
		Wait: start - enq,
	}
}

// finishObs records a message leaving the network with the given total
// accumulated wait, closing its span if one is open.
func (pc *runProbe) finishObs(si int32, meas bool, total int64) {
	if meas && pc.hists != nil {
		pc.hbuf[pc.stages].Record(pc.hists[pc.stages], total)
	}
	if pc.spans.isSampled(si) {
		pc.finishSpan(si, total)
	}
}

// finishSpan closes slot si's open span with the message's total wait
// into the tracer.
func (pc *runProbe) finishSpan(si int32, total int64) {
	h, st := pc.spans.close(si)
	pc.tracer.Add(obs.Span{
		Msg: h.msg, Seed: pc.seed, Engine: pc.engine,
		Dest: h.dest, Arrival: h.arrival, TotalWait: total,
		Stages: st,
	})
}

// serveBatch records one stage's served batch (0-based stage, cycle t)
// from the kernel's outcomes, pass by pass in batch order: the live
// histograms' waits and, when the stage is the last, the totals of the
// messages leaving the network; then the open spans, which a message
// that leaves closes into the tracer and a dropped one discards. Each
// histogram buffer and the tracer see what stageObs and finishObs
// would have given them message by message. rs holds the batch's
// resampled service times in service order, and is empty when service
// is not resampled.
func (pc *runProbe) serveBatch(t int64, stage int, last bool, bk []int32, out []outcome, msl []mrec, rs []int64) {
	if pc.hists != nil {
		hb, h := &pc.hbuf[stage], pc.hists[stage]
		for _, o := range out {
			if o.port >= 0 && o.meas {
				hb.Record(h, int64(o.wait))
			}
		}
		if last {
			hb, h = &pc.hbuf[pc.stages], pc.hists[pc.stages]
			for i, si := range bk {
				if out[i].port >= 0 && out[i].meas {
					hb.Record(h, int64(msl[si].wsum))
				}
			}
		}
	}
	if pc.tracer == nil {
		return
	}
	pos := -1 // the message's entry in rs
	for i, si := range bk {
		if out[i].port < 0 {
			pc.dropSpan(si)
			continue
		}
		pos++
		if !pc.spans.isSampled(si) {
			continue
		}
		m := &msl[si]
		svc := int64(m.svc)
		if len(rs) > 0 {
			svc = rs[pos]
		}
		s := t + int64(out[i].wait)
		pc.spanStage(si, stage, t, s, s+svc)
		if last {
			pc.finishSpan(si, int64(m.wsum))
		}
	}
}

// dropSpan discards the span of a message dropped at a full buffer; its
// slot index is about to be recycled and must not inherit the span.
func (pc *runProbe) dropSpan(si int32) {
	if pc.spans.isSampled(si) {
		pc.spans.close(si)
	}
}

// enter records one message arriving at a stage's backlog.
func (pc *runProbe) enter(stage int) { pc.enterN(stage, 1) }

// enterN records n messages arriving at a stage's backlog at once: the
// high-water mark n calls of enter would leave.
func (pc *runProbe) enterN(stage int, n int64) {
	v := pc.stageLoad[stage] + n
	pc.stageLoad[stage] = v
	if v > pc.stageHW[stage] {
		pc.stageHW[stage] = v
	}
}

// leave records n messages departing a stage's backlog.
func (pc *runProbe) leave(stage int, n int64) {
	pc.stageLoad[stage] -= n
}

// active tracks the in-network backlog high-water mark.
func (pc *runProbe) active(v int64) {
	if v > pc.maxActive {
		pc.maxActive = v
	}
}

// tick reports the cycles simulated since the last tick to the shared
// probe and flushes the histogram buffers into the live histograms;
// called on the engines' context-poll cadence.
func (pc *runProbe) tick(p *obs.SimProbe, t int64) {
	p.AddCycles(t - pc.lastFlush)
	pc.lastFlush = t
	pc.flushHists()
}

// flushHists empties the histogram buffers into the live histograms.
func (pc *runProbe) flushHists() {
	for i := pc.histLo; i < pc.histHi && i < len(pc.hists); i++ {
		pc.hbuf[i].FlushTo(pc.hists[i])
	}
}

// split hands the stages from h on to a helper view for a split kernel
// run. The two views share the per-stage counters and histogram
// buffers, each touching only its own stages' entries (the helper also
// the total's), but each has its own span slab — they index separate
// slot stores, and no storage is shared between the goroutines — and
// its own free-list counters. join folds the helper view back once the
// helper has stopped.
func (pc *runProbe) split(h int) *runProbe {
	side := &runProbe{
		stageLoad: pc.stageLoad, stageHW: pc.stageHW,
		seed: pc.seed, hists: pc.hists, hbuf: pc.hbuf, tracer: pc.tracer,
		spans: &pc.scr.helperSpans, scr: pc.scr, stages: pc.stages, engine: pc.engine,
		histLo: h, histHi: pc.histHi,
	}
	side.spans.reset(pc.stages)
	pc.histHi = h
	return side
}

// join folds a stopped helper view into pc: its histogram buffers are
// flushed and its free-list counters added.
func (pc *runProbe) join(side *runProbe) {
	side.flushHists()
	pc.freeHits += side.freeHits
	pc.slotAllocs += side.slotAllocs
}

// flush hands the run's sample to the shared probe, after the last of
// its histogram buffers, on every exit path: the engines defer it.
func (pc *runProbe) flush(p *obs.SimProbe, t int64, res *Result) {
	pc.flushHists()
	s := obs.RunSample{
		Cycles:         t - pc.lastFlush,
		BlockPulls:     pc.blockPulls,
		FreeListHits:   pc.freeHits,
		SlotAllocs:     pc.slotAllocs,
		Messages:       res.Messages,
		MaxInFlight:    pc.maxActive,
		StageHighWater: pc.stageHW,
		BlockedCycles:  res.BlockedCycles,
	}
	if g := pc.graph; g != nil {
		// Record copies the sample, so the verdicts can live in scratch.
		pc.scr.sat = g.satVerdicts(pc.satDepth, pc.scr.sat)
		s.SwitchHW, s.SwitchBlocked, s.SwitchSat = g.hw, g.blocked, pc.scr.sat
	}
	p.Record(s)
}
