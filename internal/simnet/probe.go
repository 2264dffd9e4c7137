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
	measSeq int64              // measured-message ordinal in trace order
	spans   map[int32]obs.Span // in-flight sampled spans by slot index
	sampled []uint64           // bitset of the slots in spans
	scr     *probeScratch
	stages  int
	engine  string

	// histLo and histHi bound the histogram buffers this view owns and
	// flushes: all of them, or one stage group's share in a split run.
	histLo, histHi int
}

// probeScratch is the reusable scratch of a run's probe: the histogram
// buffers (one per stage, then one for the total), the sampled-slot
// bitset and the graph engine's per-switch saturation verdicts. The
// pooled engines keep it in their arena, so back-to-back probed runs
// allocate none of them.
type probeScratch struct {
	hbuf          []obs.HistBuf
	sampled       []uint64
	helperSampled []uint64 // the helper stage group's bitset in a split kernel run
	sat           [][]bool
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
	if tr := cfg.Probe.Tracer; tr != nil {
		pc.tracer = tr
		pc.sampleN = tr.SampleN()
		pc.spans = make(map[int32]obs.Span)
		pc.sampled = scr.sampled[:0]
	}
	return pc
}

// admit is called for every message in trace order as it is pulled from
// the arrival source; it assigns measured messages their ordinal and
// opens a span for the sampled ones. Both engines consume schedule
// blocks in trace order, so a message gets the same ordinal — and the
// same sampling decision — in either engine. A span's Stages is
// allocated once at its final length, one entry per stage for stageObs
// to fill; the slices are not pooled, since the tracer's ring keeps
// them and Tracer.Spans hands them out.
func (pc *runProbe) admit(si int32, meas bool, arrival int64, dest uint32) {
	if !meas || pc.tracer == nil {
		return
	}
	seq := pc.measSeq
	pc.measSeq++
	if seq%pc.sampleN != 0 {
		return
	}
	pc.openSpan(si, obs.Span{
		Msg: seq, Seed: pc.seed, Engine: pc.engine,
		Dest: dest, Arrival: arrival,
		Stages: make([]obs.StageSpan, pc.stages),
	})
}

// openSpan files sp as the open span of slot si.
func (pc *runProbe) openSpan(si int32, sp obs.Span) {
	if w := int(si >> 6); w >= len(pc.sampled) {
		pc.sampled = append(pc.sampled, make([]uint64, w+1-len(pc.sampled))...)
	}
	pc.sampled[si>>6] |= 1 << (uint(si) & 63)
	pc.spans[si] = sp
}

// isSampled reports whether slot si holds an open span. The bitset
// answers for the map: only about one stage visit in sampleN pays for a
// lookup, and every set bit has its span.
func (pc *runProbe) isSampled(si int32) bool {
	w := int(si >> 6)
	return w < len(pc.sampled) && pc.sampled[w]&(1<<(uint(si)&63)) != 0
}

// closeSpan removes slot si's open span and returns it.
func (pc *runProbe) closeSpan(si int32) obs.Span {
	pc.sampled[si>>6] &^= 1 << (uint(si) & 63)
	sp := pc.spans[si]
	delete(pc.spans, si)
	return sp
}

// stageObs records one service start at a stage (0-based): the message
// enqueued at cycle enq begins service at start and holds the output
// port until depart. Feeds the live histograms (measured messages only,
// matching the reported statistics) and any open span.
func (pc *runProbe) stageObs(si int32, stage int, meas bool, enq, start, depart int64) {
	if meas && pc.hists != nil {
		pc.hbuf[stage].Record(pc.hists[stage], start-enq)
	}
	if pc.isSampled(si) {
		pc.spanStage(si, stage, enq, start, depart)
	}
}

// spanStage fills the stage entry of slot si's open span.
func (pc *runProbe) spanStage(si int32, stage int, enq, start, depart int64) {
	pc.spans[si].Stages[stage] = obs.StageSpan{
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
	if pc.isSampled(si) {
		pc.finishSpan(si, total)
	}
}

// finishSpan closes slot si's open span with the message's total wait
// into the tracer.
func (pc *runProbe) finishSpan(si int32, total int64) {
	sp := pc.closeSpan(si)
	sp.TotalWait = total
	pc.tracer.Add(sp)
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
		if !pc.isSampled(si) {
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
	if pc.isSampled(si) {
		pc.closeSpan(si)
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
// the total's), but each has its own span map and bitset — they index
// separate slot stores — and its own free-list counters. join folds the
// helper view back once the helper has stopped.
func (pc *runProbe) split(h int) *runProbe {
	side := &runProbe{
		stageLoad: pc.stageLoad, stageHW: pc.stageHW,
		seed: pc.seed, hists: pc.hists, hbuf: pc.hbuf, tracer: pc.tracer,
		scr: pc.scr, stages: pc.stages, engine: pc.engine,
		histLo: h, histHi: pc.histHi,
	}
	if pc.tracer != nil {
		side.spans = make(map[int32]obs.Span)
		side.sampled = pc.scr.helperSampled[:0]
	}
	pc.histHi = h
	return side
}

// join folds a stopped helper view into pc: its histogram buffers are
// flushed, its free-list counters added, its bitset returned to scratch.
func (pc *runProbe) join(side *runProbe) {
	side.flushHists()
	pc.freeHits += side.freeHits
	pc.slotAllocs += side.slotAllocs
	if side.tracer != nil {
		pc.scr.helperSampled = side.sampled
	}
}

// flush hands the run's sample to the shared probe, after the last of
// its histogram buffers, on every exit path: the engines defer it. The
// sampled-slot bitset goes back to the scratch it grew from, so the
// next run on the same scratch reuses its capacity.
func (pc *runProbe) flush(p *obs.SimProbe, t int64, res *Result) {
	pc.flushHists()
	if pc.tracer != nil {
		pc.scr.sampled = pc.sampled
	}
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
