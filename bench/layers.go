package main

import (
	"fmt"
	"strings"

	"banyan/internal/sweep"
)

// modelCounts are simulated counts of one pass, over its distinct
// points. They repeat exactly at a given seed and size; a change in any
// of them means the simulation changed.
type modelCounts struct {
	msgStages, offered, cycles  int64
	blocked, dropped, deflected int64
	saturatedSwitches           int64
	stageModelMsgStages         int64 // on the kernel, lanes and reference engines
}

func countModel(prs []*sweep.PointResult) modelCounts {
	var c modelCounts
	seen := map[uint64]bool{}
	for _, pr := range prs {
		if seen[pr.Key] {
			continue
		}
		seen[pr.Key] = true
		for _, r := range pr.Runs {
			if r == nil {
				continue
			}
			ms := r.Offered * int64(pr.Point.Cfg.Stages)
			c.msgStages += ms
			if pr.Point.Engine != sweep.Graph && pr.Point.Engine != sweep.Literal {
				c.stageModelMsgStages += ms
			}
			c.offered += r.Offered
			c.cycles += int64(pr.Point.Cfg.Cycles + pr.Point.Cfg.Warmup)
			c.blocked += r.BlockedCycles
			c.dropped += r.Dropped
			c.deflected += r.Deflected
			for _, s := range r.SwitchSat {
				if s.Saturated {
					c.saturatedSwitches++
				}
			}
		}
	}
	return c
}

// spanTotals sums the spans matching keep: count, total duration and
// total self time, in ns.
func spanTotals(spans []span, keep func(span) bool) (n int, dur, self int64) {
	st := selfTimes(spans)
	for i, s := range spans {
		if keep(s) {
			n++
			dur += s.dur()
			self += st[i]
		}
	}
	return n, dur, self
}

func named(name string) func(span) bool { return func(s span) bool { return s.Name == name } }

// meanOr returns total/n, or fallback when there were no spans.
func meanOr(n int, total float64, fallback float64) float64 {
	if n == 0 {
		return fallback
	}
	return total / float64(n)
}

// perLayer computes the per-layer metrics of a traced run and its
// layer-separation table.
func perLayer(w *workload, ps *passes, spans []span, lr *ladderResult, fi *fillIns, chk *checker) ([]metric, []string) {
	model := countModel(ps.first.results)
	nt := float64(len(ps.traced))
	nPoints := float64(len(w.points))
	par := float64(w.par)

	// Sweep runner accounting over the traced passes: the attributed
	// simulation wall time, split by engine, against the pool's capacity.
	var capNS, costNS, costGraphLit, reps, cacheHits, reported float64
	var gcCPU, allCPU, journalBytes float64
	for i, out := range ps.tracedOut {
		capNS += par * float64(ps.traced[i].wall.Nanoseconds())
		gcCPU += ps.traced[i].gcCPU
		allCPU += ps.traced[i].allCPU
		for _, r := range out.runners {
			p := r.Counters().Snapshot()
			costNS += float64(p.CostWallNS)
			reps += float64(p.RepsDone)
			cacheHits += float64(r.Cache.Hits())
		}
		reported += float64(len(out.results))
		for _, pr := range out.results {
			if pr.Cost != nil && (pr.Point.Engine == sweep.Graph || pr.Point.Engine == sweep.Literal) {
				costGraphLit += float64(pr.Cost.WallNS)
			}
		}
		journalBytes += float64(out.journalBytes)
	}

	isExp := func(s span) bool { return strings.HasPrefix(s.Name, "experiments.") }
	nExp, _, expSelf := spanTotals(spans, isExp)
	_, renderNS, _ := spanTotals(spans, named("Render"))
	nScrape, scrapeNS, _ := spanTotals(spans, named("WriteOpenMetrics"))
	nTSDB, tsdbNS, _ := spanTotals(spans, named("TSDB.Sample"))
	nLedger, ledgerNS, _ := spanTotals(spans, named("BuildLedger"))
	nOpen, openNS, _ := spanTotals(spans, named("OpenJournal.resume"))
	nResume, resumeNS, _ := spanTotals(spans, func(s span) bool {
		return s.Name == "Runner.RunCtx" && strings.HasSuffix(s.Req, "/resume")
	})
	nKey, keyNS, _ := spanTotals(spans, named("sweep.Key"))
	nWiring, wiringNS, _ := spanTotals(spans, named("topology.WiringFor"))

	expMS := fi.experimentsMS
	renderMS := fi.renderMS
	if nExp > 0 {
		expMS = float64(expSelf) / 1e6 / nt
		renderMS = float64(renderNS) / 1e6 / nt
	}
	bytesPerPoint := fi.journalBytesPerPoint
	if journalBytes > 0 {
		bytesPerPoint = journalBytes / nt / nPoints
	}

	// Observability: each field's marginal kernel cost per message-stage.
	bare := lr.total(rBare, "")
	perMS := func(with, base string) float64 {
		return ratio(float64(lr.total(with, "").ns-lr.total(base, "").ns), float64(bare.msgStages))
	}
	probeNS := perMS(rProbe, rBare)
	histsNS := perMS(rHists, rProbe)
	tracerNS := perMS(rTracer, rProbe)
	waitNS := perMS(rWaitHists, rBare)

	kernel := lr.total(rKernel, "")
	kernel2 := lr.total(rKernel2, "")
	lanes := lr.total(rLanes, "")
	reference := lr.total(rReference, "")
	graph := lr.total(rGraph, "")
	graphKernel := lr.total(rKernel, rGraph)
	blocking := lr.total(rBlocking, "")
	literal := lr.total(rLiteral, "")
	plainWall := median(wallsOf(ps.plain))
	tracedWall := median(wallsOf(ps.traced))
	vrUS, mergeUS := replayCosts(ps.first.results)

	kernelSelf := kernel.selfNSPerMsgStage()
	m := []metric{
		{"simnet.trace.ns_per_msg", "ns", ratio(float64(kernel.nextNS), float64(kernel.msgs)), "TraceStream.Next time per generated message"},
		{"simnet.trace.share", "1", ratio(float64(kernel.nextNS), float64(kernel.ns)), "share of kernel call time in TraceStream.Next"},
		{"simnet.kernel.ns_per_msg_stage", "ns", kernelSelf, "RunKernelSource self time (call minus Next)"},
		{"simnet.kernel.allocs_per_rep", "count", ratio(float64(kernel.allocs), float64(kernel.calls)), ""},
		{"simnet.kernel.alloc_bytes_per_rep", "B", ratio(float64(kernel.byts), float64(kernel.calls)), ""},
		{"simnet.lanes.ns_per_msg_stage", "ns", ratio(float64(lanes.ns), float64(lanes.msgStages)), "RunLanes, two lanes, trace generation included"},
		{"simnet.lanes_over_kernel", "1", ratio(float64(lanes.ns), float64(kernel.ns+kernel2.ns)), "RunLanes time over two RunKernelSource calls on the same seeds"},
		{"simnet.reference.ns_per_msg_stage", "ns", reference.selfNSPerMsgStage(), "RunSource self time"},
		{"simnet.kernel_over_reference", "1", ratio(kernelSelf, reference.selfNSPerMsgStage()), ""},
		{"simnet.graph_committed.ns_per_msg_stage", "ns", graph.selfNSPerMsgStage(), "RunGraphSource, omega, unlimited buffers"},
		{"simnet.graph_committed.allocs_per_rep", "count", ratio(float64(graph.allocs), float64(graph.calls)), ""},
		{"simnet.graph_over_kernel", "1", ratio(graph.selfNSPerMsgStage(), graphKernel.selfNSPerMsgStage()), "same configurations and seeds"},
		{"simnet.graph_blocking.ns_per_msg_stage", "ns", blocking.selfNSPerMsgStage(), "RunGraphSource with finite stage buffers"},
		{"simnet.graph_blocking.allocs_per_rep", "count", ratio(float64(blocking.allocs), float64(blocking.calls)), ""},
		{"simnet.literal.ns_per_msg_stage", "ns", literal.selfNSPerMsgStage(), "RunLiteralSource"},
		{"simnet.literal.allocs_per_rep", "count", ratio(float64(literal.allocs), float64(literal.calls)), ""},
		{"model.msg_stages", "count", float64(model.msgStages), "offered messages × stages, one pass"},
		{"model.blocked_per_kcycle", "count", ratio(float64(model.blocked)*1000, float64(model.cycles)), "blocked (port, cycle) pairs per 1000 cycles"},
		{"model.drop_ratio", "1", ratio(float64(model.dropped), float64(model.offered)), ""},
		{"model.saturated_switches", "count", float64(model.saturatedSwitches), ""},
		{"model.deflected", "count", float64(model.deflected), ""},
		{"stats.merge_us_per_point", "us", mergeUS, "simnet.Aggregate over a point's replications"},
		{"sweep.overhead_ns_per_rep", "ns", ratio(capNS-costNS, reps), "(workers × pass wall − attributed simulation wall) / replications"},
		{"sweep.worker_util", "1", ratio(costNS, capNS), ""},
		{"sweep.key_ns_per_point", "ns", ratio(float64(keyNS), float64(nKey)*nPoints), ""},
		{"sweep.journal_bytes_per_point", "B", bytesPerPoint, ""},
		{"sweep.journal_open_ms", "ms", meanOr(nOpen, float64(openNS)/1e6, fi.journalOpenMS), "OpenJournal on the written journal"},
		{"sweep.resume_us_per_point", "us", meanOr(nResume, float64(resumeNS)/1e3/nPoints, fi.resumeUSPerPoint), ""},
		{"sweep.cache_hit_ratio", "1", ratio(cacheHits, reported), ""},
		{"sweep.drift_us_per_point", "us", ratio(float64(lr.driftNS)/1e3, float64(lr.driftCalls)), "DriftMonitor.Check on replayed WaitHists"},
		{"sweep.ledger_build_ms", "ms", meanOr(nLedger, float64(ledgerNS)/1e6, fi.ledgerMS), ""},
		{"vr.estimate_us_per_point", "us", vrUS, "Plan.Estimate, CRN and control variates"},
		{"obs.probe_ns_per_msg_stage", "ns", probeNS, ""},
		{"obs.hists_ns_per_msg_stage", "ns", histsNS, "added to a probe"},
		{"obs.tracer_ns_per_msg_stage", "ns", tracerNS, "1 in 64 messages, added to a probe"},
		{"obs.waithists_ns_per_msg_stage", "ns", waitNS, ""},
		{"obs.openmetrics_us_per_scrape", "us", meanOr(nScrape, float64(scrapeNS)/1e3, fi.scrapeUS), ""},
		{"obs.tsdb_us_per_sample", "us", meanOr(nTSDB, float64(tsdbNS)/1e3, fi.tsdbUS), ""},
		{"experiments.self_ms_per_pass", "ms", expMS, "analytic work and table building outside the runner"},
		{"experiments.render_ms_per_pass", "ms", renderMS, ""},
		{"topology.wiring_us", "us", ratio(float64(wiringNS)/1e3, float64(nWiring)), "topology.WiringFor per network shape"},
		{"runtime.gc_cpu_share", "1", ratio(gcCPU, allCPU), "GC CPU over all CPU, traced passes"},
		{"e2e.ns_per_msg_stage", "ns", ratio(plainWall*1e9, float64(model.msgStages)), "untraced pass wall per message-stage"},
		{"trace.overhead", "1", ratio(tracedWall, plainWall) - 1, "traced over untraced pass wall, minus one"},
		{"check.stage1_rel_err", "1", chk.stage1RelErr, "largest |sim − Theorem 1| / Theorem 1"},
		{"check.total_rel_err", "1", chk.totalRelErr, "largest |sim − Section V| / Section V"},
	}

	// Layer separation: each module's share of the pool's worker time
	// (workers × pass wall) over the traced passes. The engines' share is
	// the runner's attributed simulation time; observability inside the
	// engines is priced from the ladder's per-message-stage costs; the
	// experiments' serial work idles every worker; the sweep runner is
	// what is left.
	var obsPer float64
	if w.obs.probe {
		obsPer += probeNS
	}
	if w.obs.hists {
		obsPer += histsNS
	}
	if w.obs.tracer {
		obsPer += tracerNS
	}
	if w.obs.waitHists {
		obsPer += waitNS
	}
	obsEngine := obsPer * float64(model.stageModelMsgStages) * nt
	serial := par * float64(expSelf+renderNS)
	rows := []struct {
		name string
		ns   float64
	}{
		{"simnet kernel+trace", costNS - costGraphLit - obsEngine},
		{"simnet graph+literal", costGraphLit},
		{"obs", obsEngine + float64(scrapeNS+tsdbNS)},
		{"sweep", capNS - costNS - serial},
		{"experiments", serial},
	}
	table := []string{fmt.Sprintf("layer separation: share of worker time (%d workers × pass wall, %d traced passes)", w.par, len(ps.traced))}
	for _, r := range rows {
		share := ratio(r.ns, capNS)
		line := fmt.Sprintf("  %-22s %6.1f%%", r.name, 100*share)
		if t, ok := layerTargets[w.name][r.name]; ok {
			verdict := "MISSED"
			if (t.atLeast && share >= t.share) || (!t.atLeast && share <= t.share) {
				verdict = "met"
			}
			op := "<="
			if t.atLeast {
				op = ">="
			}
			line += fmt.Sprintf("  target %s %.0f%%: %s", op, 100*t.share, verdict)
		}
		table = append(table, line)
	}
	return m, table
}

// layerTarget bounds one module's share of a workload's worker time.
type layerTarget struct {
	atLeast bool
	share   float64
}

// layerTargets are the shares each workload was sized to show: its own
// layer dominates, and layers it does not use stay out.
var layerTargets = map[string]map[string]layerTarget{
	"paper_quick":   {"obs": {true, 0.20}},
	"deep_heavy":    {"simnet kernel+trace": {true, 0.70}, "sweep": {false, 0.05}, "obs": {false, 0}},
	"sweep_small":   {"sweep": {true, 0.30}, "obs": {false, 0}},
	"topology_true": {"simnet graph+literal": {true, 0.60}, "obs": {false, 0}},
}

func wallsOf(sts []passStats) []float64 {
	var xs []float64
	for _, s := range sts {
		xs = append(xs, s.wall.Seconds())
	}
	return xs
}
