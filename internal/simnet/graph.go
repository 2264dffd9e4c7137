package simnet

import (
	"context"
	"fmt"
	"math/rand/v2"

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
//   - Blocking mode (any finite StageBuffers entry): a literal
//     cycle-driven walk with backpressure instead of loss. A message
//     that finds its next queue full stays put, its output port stalls
//     (head-of-line blocking) and the delivery retries every cycle;
//     stage-1 arrivals finding a full queue are held at the source.
//     Messages keep their logical enqueue timestamps while blocked, so
//     per-stage waits still sum to the total delay.
//
// Per-switch telemetry (backlog high-water marks, blocked-cycle counts,
// saturation verdicts) is hash-excluded observability: it flows through
// Config.Probe into the obs layer and into Result.SwitchSat under
// Config.TrackSwitches, and never perturbs a simulated number.

// RunGraph executes the graph engine on a streamed trace.
func RunGraph(cfg *Config) (*Result, error) {
	return RunGraphCtx(context.Background(), cfg)
}

// RunGraphCtx is RunGraph with cancellation, under the RunSourceCtx
// contract: ctx cancellation returns a Truncated partial result plus
// ctx.Err(); the deterministic saturation budgets return a
// Truncated/Unstable result with a nil error.
func RunGraphCtx(ctx context.Context, cfg *Config) (*Result, error) {
	gcfg := graphDefaults(cfg)
	src, err := NewTraceStream(gcfg, 0)
	if err != nil {
		return nil, err
	}
	// The stream is private to this run, so it borrows the arena's block
	// scratch, as RunCtx's does.
	ar := getArena()
	ar.lendBlockScratch(src)
	defer func() {
		ar.harvestBlockScratch(src)
		ar.release()
	}()
	return runGraphSource(ctx, gcfg, src, ar)
}

// RunGraphTrace executes the graph engine on a prepared materialized
// trace (e.g. to drive it and a stage-model engine from identical
// traffic).
func RunGraphTrace(cfg *Config, tr *Trace) (*Result, error) {
	return RunGraphSourceCtx(context.Background(), cfg, tr.Source())
}

// RunGraphSource executes the graph engine against an arrival source.
func RunGraphSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunGraphSourceCtx(context.Background(), cfg, src)
}

// graphDefaults returns cfg with the graph engine's Topology default
// (omega) filled in, copying so the caller's Config is never mutated.
func graphDefaults(cfg *Config) *Config {
	if cfg.Topology != "" {
		return cfg
	}
	gcfg := *cfg
	gcfg.Topology = topology.Omega
	return &gcfg
}

// RunGraphSourceCtx is the graph engine's full entry point.
func RunGraphSourceCtx(ctx context.Context, cfg *Config, src ArrivalSource) (*Result, error) {
	ar := getArena()
	defer ar.release()
	return runGraphSource(ctx, cfg, src, ar)
}

// runGraphSource resolves cfg's wiring and runs the graph engine on it,
// with ar as the committed mode's kernel scratch.
func runGraphSource(ctx context.Context, cfg *Config, src ArrivalSource, ar *arena) (*Result, error) {
	cfg = graphDefaults(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wir, err := topology.WiringFor(cfg.Topology, cfg.K, cfg.Stages)
	if err != nil {
		return nil, err
	}
	return runGraphWired(ctx, cfg, src, wir, ar)
}

// runGraphWired runs the graph engine over an explicit wiring. It is
// the test seam the switch-relabeling metamorphic suite drives with
// relabeled (isomorphic) wirings.
func runGraphWired(ctx context.Context, cfg *Config, src ArrivalSource, wir *topology.Wiring, ar *arena) (*Result, error) {
	meta := src.Meta()
	if meta.Wrapped || meta.Rows != wir.Size() {
		return nil, fmt.Errorf("simnet: graph engine needs the full %d-row network, trace has %d rows (wrapped=%v)",
			wir.Size(), meta.Rows, meta.Wrapped)
	}
	g := newGraphNet(cfg, wir)
	if cfg.graphBlocking() {
		return runGraphBlocking(ctx, cfg, src, g)
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

// switchSat renders the counters into Result.SwitchSat verdicts.
func (g *graphNet) switchSat(cfg *Config) []SwitchStat {
	sd := int64(cfg.satDepth())
	out := make([]SwitchStat, 0, g.n*g.rows/g.k)
	for s := 0; s < g.n; s++ {
		for id := range g.hw[s] {
			out = append(out, SwitchStat{
				Stage: s + 1, Switch: id,
				HighWater: g.hw[s][id],
				Blocked:   g.blocked[s][id],
				Saturated: g.blocked[s][id] > 0 || g.hw[s][id] >= sd,
			})
		}
	}
	return out
}

// runGraphBlocking is the blocking-mode body: a literal cycle-driven
// walk (RunLiteralSourceCtx's phase structure) with backpressure
// replacing loss. The per-cycle phases are:
//
//  1. retry blocked inter-stage deliveries, in (stage, row) order;
//  2. injections — held stage-1 arrivals plus this cycle's fresh trace
//     arrivals, shuffled together — each entering unless its stage-1
//     queue is full;
//  3. fresh deliveries (messages that started service at t-1), shuffled;
//     a delivery into a full queue parks on its sender port
//     (head-of-line blocking) and rejoins phase 1 next cycle;
//  4. every unstalled free server starts its head-of-line message.
//
// Messages carry logical enqueue timestamps that survive blocking —
// waiting times measure cycles since the message should have joined the
// queue — so per-stage waits sum to the total delay exactly as in
// committed mode, and with effectively-infinite finite buffers the
// statistics collapse to the stage model's.
func runGraphBlocking(ctx context.Context, cfg *Config, src ArrivalSource, g *graphNet) (*Result, error) {
	meta := src.Meta()
	n := g.n
	res := &Result{
		Rows:      meta.Rows,
		Wrapped:   false,
		StageWait: make([]stats.Welford, n),
	}
	if cfg.TrackStageWaits {
		res.StageCov = stats.NewCovMatrix(n)
	}
	if cfg.HotModule > 0 {
		res.HotWait = make([]stats.Welford, n)
	}
	if cfg.TrackSwitches {
		defer func() { res.SwitchSat = g.switchSat(cfg) }()
	}

	caps := make([]int, n)
	copy(caps, cfg.StageBuffers)
	queues := make([][]literalQueue, n)
	for s := range queues {
		queues[s] = make([]literalQueue, meta.Rows)
	}
	// blockedSlot[s][r] parks the message served at stage s+1's output
	// row r whose delivery to the next stage is stalled; -1 when the
	// port is clear. The sender port cannot start another message while
	// one is parked, so at most one message is ever parked per port.
	blockedSlot := make([][]int32, n-1)
	for s := range blockedSlot {
		blockedSlot[s] = make([]int32, meta.Rows)
		for r := range blockedSlot[s] {
			blockedSlot[s][r] = -1
		}
	}

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, "graph")
		pc.switchHW = g.hw
		pc.switchBlocked = g.blocked
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

	const (
		entered = iota
		droppedOut
		blocked
	)
	// benter attempts to place slot si into its 0-based target stage st,
	// resolving the wiring and the failure policy. The message's logical
	// arrival timestamp is never touched here: it was stamped when the
	// message should have joined (trace arrival, or service start + 1),
	// so blocked retries keep accumulating waiting time.
	benter := func(si int32, st int) int {
		m := &slots[si]
		digit := int(uint32(m.dest)/g.div[st]) % g.k
		port, drop, defl := g.resolve(st, m.row, digit)
		if drop {
			res.Dropped++
			if pc != nil {
				pc.dropSpan(si)
			}
			freeSlots = append(freeSlots, si)
			return droppedOut
		}
		q := &queues[st][port]
		if caps[st] > 0 && q.size() >= caps[st] {
			res.BlockedCycles++
			if g.load != nil {
				g.swBlock(st, port)
			}
			return blocked
		}
		if defl {
			res.Deflected++
		}
		m.stage = int8(st + 1)
		m.row = port
		q.push(si)
		if pc != nil {
			pc.enter(st)
		}
		if g.load != nil {
			g.swJoin(st, port)
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
	covered := int64(0)
	var buffered []int32
	bufHead := 0
	haveFail := g.failed != nil
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
			res.truncate(t, true)
			return res, nil
		}
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
		for s := 0; s < n-1; s++ {
			bs := blockedSlot[s]
			for r := range bs {
				si := bs[r]
				if si < 0 {
					continue
				}
				switch benter(si, s+1) {
				case entered:
					bs[r] = -1
					if g.load != nil {
						g.swLeave(s, int32(r))
					}
				case droppedOut:
					bs[r] = -1
					if g.load != nil {
						g.swLeave(s, int32(r))
					}
					inNetwork--
				}
			}
		}

		// 2. Injections: held arrivals and this cycle's fresh trace
		// arrivals compete in one shuffled batch.
		batch = batch[:0]
		batch = append(batch, held...)
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
			switch benter(si, 0) {
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
		// stage; a full queue parks the message on its sender port.
		slot := delivery[t&1]
		delivery[t&1] = delivery[t&1][:0]
		rng.Shuffle(len(slot), func(a, b int) { slot[a], slot[b] = slot[b], slot[a] })
		for _, si := range slot {
			m := &slots[si]
			st := int(m.stage) // 0-based target = 1-based current
			switch benter(si, st) {
			case droppedOut:
				inNetwork--
			case blocked:
				blockedSlot[st-1][m.row] = si
				if g.load != nil {
					g.swJoin(st-1, m.row) // parked on the sender port
				}
			}
		}

		// 4. Service: every free, unstalled server starts its
		// head-of-line message.
		for s := 0; s < n; s++ {
			qs := queues[s]
			bs := []int32(nil)
			if s < n-1 {
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
				if g.load != nil {
					g.swLeave(s, int32(r))
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
					if g.swh != nil {
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
					if haveFail && m.row != int32(m.dest) {
						res.Misrouted++
					}
					finish(si)
					inNetwork--
				}
			}
		}

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
			res.truncate(t, true)
			return res, nil
		}
	}
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages completed")
	}
	return res, nil
}
