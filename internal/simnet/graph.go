package simnet

import (
	"context"

	"banyan/internal/stats"
	"banyan/internal/topology"
)

// This file is the topology-true graph engine: it advances messages
// switch by switch through an explicit k-ary n-stage delta network
// (internal/topology's wiring tables) instead of the closed-form omega
// arithmetic the stage-model engines hard-code. It runs in one of two
// modes, selected by Config.StageBuffers:
//
//   - Committed mode (all buffers infinite, the default): a message's
//     service start is committed the moment it is routed, exactly like
//     the stage model. This mode is the batch kernel itself (runKernel
//     in kernel.go) with the wiring passed in as data: the graphNet
//     below supplies each stage's next-row table and digit divisor in
//     place of the omega shift, plus the failure policy and per-switch
//     telemetry. Under the omega wiring it is byte-identical to the
//     stage model at every seed: that is the collapse contract the
//     equivalence battery (TestGraphCollapsesToStageModel, the 5-way
//     FuzzEngineEquivalence) enforces.
//
//   - Blocking mode (any finite StageBuffers entry): the finite-buffer
//     cycle loop (runCycle in cycle.go) under its block policy, routed
//     through the same graphNet. A message that finds its next queue
//     full stays put and its output port stalls (head-of-line
//     blocking): backpressure instead of the literal engine's loss.
//
// Per-switch telemetry (backlog high-water marks, blocked-cycle counts,
// saturation verdicts) is hash-excluded observability: it flows through
// Config.Probe into the obs layer and into Result.SwitchSat under
// Config.TrackSwitches, and never perturbs a simulated number.

// RunGraphSource executes the graph engine against an arrival source.
//
// Deprecated: call RunEngine(ctx, Graph, cfg, src).
func RunGraphSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunEngine(context.Background(), Graph, cfg, src)
}

// runGraphWired runs the graph engine over an explicit wiring. It is
// the test seam the switch-relabeling metamorphic suite drives with
// relabeled (isomorphic) wirings.
func runGraphWired(ctx context.Context, cfg *Config, src ArrivalSource, wir *topology.Wiring, ar *arena) (*Result, error) {
	g := newGraphNet(cfg, wir)
	if cfg.graphBlocking() {
		caps := make([]int, g.n)
		copy(caps, cfg.StageBuffers)
		return runCycle(ctx, cfg, src, ar, g, caps, false)
	}
	return runKernel(ctx, cfg, src, ar, g)
}

// graphNet is the routing and telemetry state shared by both modes.
type graphNet struct {
	k, n, rows int
	next       [][]int32 // next[s][row*k+digit]: output row at stage s+1
	swid       [][]int32 // swid[s][row]: switch owning output row at stage s+1
	div        []uint32  // digit divisor per stage

	failed [][]bool // failed[s][row]: output link failed; nil when none
	drop   bool     // failure policy: true = drop, false = reroute

	// Per-switch counters, allocated when tracked (TrackSwitches or a
	// probe): current backlog, its high-water mark, blocked cycles.
	// load[s] are views of loadFlat, indexed by s·(switches per stage)+id
	// in the committed mode's release schedule.
	load     [][]int32
	loadFlat []int32
	hw       [][]int64
	blocked  [][]int64

	swh [][]*stats.Hist // per-(stage, switch) wait hists; may be nil
}

func newGraphNet(cfg *Config, wir *topology.Wiring) *graphNet {
	g := &graphNet{
		k: wir.Radix(), n: wir.Stages(), rows: wir.Size(),
		next: make([][]int32, wir.Stages()),
		swid: make([][]int32, wir.Stages()),
		div:  make([]uint32, wir.Stages()),
		drop: cfg.FailPolicy != "reroute",
		swh:  cfg.SwitchWaitHists,
	}
	for s := 0; s < g.n; s++ {
		g.next[s] = wir.NextTable(s + 1)
		g.swid[s] = wir.SwitchTable(s + 1)
		g.div[s] = wir.DigitDiv(s + 1)
	}
	if len(cfg.FailLinks) > 0 {
		g.failed = make([][]bool, g.n)
		for s := range g.failed {
			g.failed[s] = make([]bool, g.rows)
		}
		for _, f := range cfg.FailLinks {
			g.failed[f.Stage-1][f.Row] = true
		}
	}
	if cfg.TrackSwitches || cfg.Probe != nil {
		sw := g.rows / g.k
		g.loadFlat = make([]int32, g.n*sw)
		g.load = make([][]int32, g.n)
		g.hw = make([][]int64, g.n)
		g.blocked = make([][]int64, g.n)
		for s := 0; s < g.n; s++ {
			g.load[s] = g.loadFlat[s*sw : (s+1)*sw]
			g.hw[s] = make([]int64, sw)
			g.blocked[s] = make([]int64, sw)
		}
	}
	return g
}

// resolve routes digit d out of row at 0-based stage, applying the
// failure policy: on a failed link it either drops the message or
// deflects it to the next healthy sister port of the same switch
// (cyclic digit order). deflected=true marks a reroute; dropped=true
// means no healthy port exists or the policy is drop.
func (g *graphNet) resolve(stage int, row int32, digit int) (port int32, dropped, deflected bool) {
	tbl := g.next[stage]
	port = tbl[int(row)*g.k+digit]
	if g.failed == nil || !g.failed[stage][port] {
		return port, false, false
	}
	if g.drop {
		return port, true, false
	}
	for off := 1; off < g.k; off++ {
		p := tbl[int(row)*g.k+(digit+off)%g.k]
		if !g.failed[stage][p] {
			return p, false, true
		}
	}
	return port, true, false
}

// swJoin/swLeave maintain the per-switch backlog counters.
func (g *graphNet) swJoin(stage int, port int32) {
	id := g.swid[stage][port]
	v := g.load[stage][id] + 1
	g.load[stage][id] = v
	if int64(v) > g.hw[stage][id] {
		g.hw[stage][id] = int64(v)
	}
}

func (g *graphNet) swLeave(stage int, port int32) {
	g.load[stage][g.swid[stage][port]]--
}

// joinBatch records a committed-mode stage's served batch (0-based
// stage, cycle t) from the kernel's outcomes, in batch order: each
// measured wait into its switch's wait hist (swh, when kept), and each
// message joining its switch until the cycle after its service starts,
// when rel releases it (when the counters are kept).
func (g *graphNet) joinBatch(t int64, stage int, out []outcome, swh [][]*stats.Hist, rel *kring) {
	swid := g.swid[stage]
	relBase := int32(stage * g.rows / g.k)
	for _, o := range out {
		if o.port < 0 {
			continue
		}
		if swh != nil && o.meas {
			swh[stage][swid[o.port]].Add(int(o.wait))
		}
		if rel != nil {
			g.swJoin(stage, o.port)
			rel.push(t+int64(o.wait)+1, relBase+swid[o.port])
		}
	}
}

// release applies the switch releases r schedules at cycles up to t
// (flat loadFlat indices; committed mode only), taking each cycle's
// bucket into scratch, which it returns for reuse.
func (g *graphNet) release(r *kring, t int64, scratch []int32) []int32 {
	for r.count > 0 && r.floor <= t {
		scratch = r.take(r.floor, scratch[:0])
		for _, id := range scratch {
			g.loadFlat[id]--
		}
	}
	if r.floor <= t {
		r.floor = t + 1
	}
	return scratch
}

// swBlock charges one blocked cycle to the switch owning the full (or
// stalled-into) output port.
func (g *graphNet) swBlock(stage int, port int32) {
	g.blocked[stage][g.swid[stage][port]]++
}

// saturated is the one switch saturation rule, applied at a config's
// SatDepth: switch id of 0-based stage s blocked at least once, or its
// backlog reached the depth.
func (g *graphNet) saturated(depth int, s, id int) bool {
	return g.blocked[s][id] > 0 || g.hw[s][id] >= int64(depth)
}

// switchSat renders the counters into Result.SwitchSat verdicts.
func (g *graphNet) switchSat(cfg *Config) []SwitchStat {
	out := make([]SwitchStat, 0, g.n*g.rows/g.k)
	for s := 0; s < g.n; s++ {
		for id := range g.hw[s] {
			out = append(out, SwitchStat{
				Stage: s + 1, Switch: id,
				HighWater: g.hw[s][id],
				Blocked:   g.blocked[s][id],
				Saturated: g.saturated(cfg.satDepth(), s, id),
			})
		}
	}
	return out
}

// satVerdicts writes the run's saturation verdict of every switch at
// SatDepth depth into out, stage by stage, reusing its capacity (the
// probe's per-run sample), and returns it.
func (g *graphNet) satVerdicts(depth int, out [][]bool) [][]bool {
	out = resized(out, g.n)
	for s := range out {
		out[s] = resized(out[s], len(g.hw[s]))
		for id := range out[s] {
			out[s][id] = g.saturated(depth, s, id)
		}
	}
	return out
}
