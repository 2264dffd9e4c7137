package simnet

import (
	"context"
	"fmt"
	"math/rand/v2"

	"banyan/internal/stats"
)

// Result carries the statistics of one simulation run.
type Result struct {
	Rows     int   // rows per stage actually simulated
	Wrapped  bool  // shuffle wrapped (rows < k^n)
	Messages int64 // measured messages

	// StageWait[i] accumulates the waiting times observed at stage i+1
	// by measured messages.
	StageWait []stats.Welford

	// TotalWait is the histogram of Σ_stages wait over measured messages.
	TotalWait stats.Hist

	// StageCov is the covariance matrix of the per-stage waiting-time
	// vector; nil unless Config.TrackStageWaits was set.
	StageCov *stats.CovMatrix

	// Dropped counts messages lost to full buffers (literal engine) or
	// failed links (graph engine, FailPolicy "drop").
	Dropped int64

	// Offered counts all simulated messages including warmup.
	Offered int64

	// HotWait[i] accumulates the stage-(i+1) waits of the subset of
	// measured messages addressed to the hot module (populated only
	// when Config.HotModule > 0; StageWait still covers all messages).
	// Comparing the two exposes tree saturation.
	HotWait []stats.Welford

	// QueueDepth[i], populated by the cycle loop when
	// Config.TrackOccupancy is set, accumulates the per-cycle number of
	// messages present (queued or in service) at each output queue of
	// stage i+1 — the statistic that sizes real buffers.
	QueueDepth []stats.Welford

	// MaxQueueDepth[i] is the largest occupancy observed at any stage
	// i+1 queue (with TrackOccupancy).
	MaxQueueDepth []int

	// Truncated marks a run stopped before completion — by context
	// cancellation, a wall-clock deadline, or a saturation guard
	// (Config.MaxInFlight / Config.DrainCycles). The statistics cover
	// only the messages that completed before the stop; messages still
	// in flight are discarded.
	Truncated bool

	// Unstable marks a truncation caused by a saturation guard: the
	// in-flight backlog exceeded Config.MaxInFlight, or the network
	// failed to drain within the Config.DrainCycles budget — the
	// divergence signature of configurations at m·λ ≥ 1.
	Unstable bool

	// TruncatedAt is the cycle at which a truncated run stopped (the
	// number of cycles actually simulated); 0 unless Truncated.
	TruncatedAt int64

	// BlockedCycles counts (port, cycle) pairs at which the graph engine
	// in blocking mode could not move a message forward because the next
	// queue was full — injections held at the sources included. Zero in
	// committed mode and whenever buffers never fill.
	BlockedCycles int64

	// Deflected counts messages pushed onto a healthy sister port by the
	// graph engine's reroute failure policy; Misrouted counts the subset
	// that consequently exited the network at the wrong output. Both are
	// zero without Config.FailLinks.
	Deflected int64
	Misrouted int64

	// SwitchSat carries the graph engine's per-switch telemetry and
	// saturation verdicts, ordered by stage then switch index; nil
	// unless Config.TrackSwitches.
	SwitchSat []SwitchStat
}

// SwitchStat is one switch's graph-engine telemetry: the backlog
// high-water mark across its output ports, the number of (port, cycle)
// pairs it spent blocked, and the saturation verdict (blocked at least
// once, or backlog reaching Config.SatDepth).
type SwitchStat struct {
	Stage     int // 1-based
	Switch    int
	HighWater int64
	Blocked   int64
	Saturated bool
}

// newResult returns the empty Result of a run over meta's network, with
// the optional accumulators cfg asks for.
func newResult(cfg *Config, meta *TraceMeta) *Result {
	res := &Result{
		Rows:      meta.Rows,
		Wrapped:   meta.Wrapped,
		StageWait: make([]stats.Welford, meta.Stages),
	}
	if cfg.TrackStageWaits {
		res.StageCov = stats.NewCovMatrix(meta.Stages)
	}
	if cfg.HotModule > 0 {
		res.HotWait = make([]stats.Welford, meta.Stages)
	}
	return res
}

// truncate flags the result as stopped at cycle t.
func (r *Result) truncate(t int64, unstable bool) {
	r.Truncated = true
	r.Unstable = r.Unstable || unstable
	r.TruncatedAt = t
}

// MeanTotalWait returns the empirical mean of the total waiting time.
func (r *Result) MeanTotalWait() float64 { return r.TotalWait.Mean() }

// VarTotalWait returns the empirical variance of the total waiting time.
func (r *Result) VarTotalWait() float64 { return r.TotalWait.Variance() }

// Run executes the fast engine on a streamed trace:
// RunEngine(context.Background(), Fast, cfg, nil).
func Run(cfg *Config) (*Result, error) {
	return RunEngine(context.Background(), Fast, cfg, nil)
}

// RunLanes runs each configuration through Run in turn and returns one
// (Result, error) pair per configuration, index-aligned with cfgs.
//
// Deprecated: lock-step lanes are gone and every replication runs on
// the batch kernel; call RunEngine once per configuration instead.
func RunLanes(cfgs []*Config) ([]*Result, []error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		results[i], errs[i] = Run(cfg)
	}
	return results, errs
}

// fastMsg is the per-in-flight-message state of the fast engine. Slots
// are recycled through a free list as messages leave the network.
type fastMsg struct {
	row   int32  // row of the port the message last departed (input row at stage 1)
	dest  uint32 // destination address
	wsum  int32  // accumulated waiting time
	svc   int16  // service requirement, cycles
	meas  bool   // counts toward statistics
	waits []int32
}

// cycleBuckets buckets in-flight message slots by absolute arrival cycle
// for one stage: a growable power-of-two ring indexed by cycle. take
// hands ownership of a bucket to the caller (so future pushes cannot
// alias a bucket still being iterated); recycle returns the backing
// array for reuse.
type cycleBuckets struct {
	buckets [][]int32
	mask    int64
	floor   int64 // cycles below floor have been taken already
	spare   [][]int32
}

func newCycleBuckets() *cycleBuckets {
	return &cycleBuckets{buckets: make([][]int32, 64), mask: 63}
}

func (cb *cycleBuckets) push(t int64, v int32) {
	if t-cb.floor >= int64(len(cb.buckets)) {
		cb.grow(t)
	}
	i := t & cb.mask
	if cb.buckets[i] == nil && len(cb.spare) > 0 {
		cb.buckets[i] = cb.spare[len(cb.spare)-1]
		cb.spare = cb.spare[:len(cb.spare)-1]
	}
	cb.buckets[i] = append(cb.buckets[i], v)
}

// grow re-homes the ring so that cycle t fits alongside cb.floor.
func (cb *cycleBuckets) grow(t int64) {
	size := int64(len(cb.buckets))
	for t-cb.floor >= size {
		size *= 2
	}
	nb := make([][]int32, size)
	for c := cb.floor; c < cb.floor+int64(len(cb.buckets)); c++ {
		if b := cb.buckets[c&cb.mask]; b != nil {
			nb[c&(size-1)] = b
		}
	}
	cb.buckets, cb.mask = nb, size-1
}

// take removes and returns the bucket for cycle t (which must be ≥ the
// previous take's cycle). The caller owns the returned slice until it
// hands it back via recycle.
func (cb *cycleBuckets) take(t int64) []int32 {
	i := t & cb.mask
	b := cb.buckets[i]
	cb.buckets[i] = nil
	cb.floor = t + 1
	return b
}

// Spare-list retention caps: a saturated high-ρ cycle can momentarily
// bucket tens of thousands of messages, and an uncapped spare list
// would pin such peak-sized arrays for the rest of the run. Oversized
// buckets are released to the GC instead; steady-state cycles sit far
// below the cap, so recycling still eliminates their churn.
const (
	maxSpareBuckets   = 64
	maxSpareBucketCap = 4096
)

func (cb *cycleBuckets) recycle(b []int32) {
	if cap(b) == 0 || cap(b) > maxSpareBucketCap || len(cb.spare) >= maxSpareBuckets {
		return
	}
	cb.spare = append(cb.spare, b[:0])
}

// RunSource executes the reference engine against an arrival source.
//
// Deprecated: call RunEngine(ctx, Reference, cfg, src).
func RunSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunEngine(context.Background(), Reference, cfg, src)
}

// ctxCheckMask controls how often the engines poll the context: every
// (ctxCheckMask+1) cycles, so the cancellation fast path costs nothing
// measurable while stops still land within a few thousand cycles.
const ctxCheckMask = 1023

// runReference is the scalar reference engine. The production fast
// engine is the batch kernel in kernel.go, which implements the
// identical algorithm over flat structure-of-arrays state; this
// straightforward implementation is kept as the differential oracle the
// kernel is checked against — the two are byte-identical at every seed.
//
// The engine advances a global clock cycle by cycle. At each cycle every
// stage's batch of arriving messages is visited (simultaneous arrivals
// in uniformly random order, which realizes the random batch-order
// service discipline assumed by the analysis); each message joins the
// output queue selected by its routing digit, begins service at
// s = max(arrival, port-free time), advances the port-free time by its
// service requirement, and is handed to the next stage with arrival time
// s+1. With infinite buffers and FIFO queues this reproduces the
// cycle-level dynamics exactly while doing work proportional to the
// number of message-stage events only, and holding state proportional to
// the number of in-flight messages only.
func runReference(ctx context.Context, cfg *Config, src ArrivalSource) (*Result, error) {
	meta := src.Meta()
	n := meta.Stages
	res := newResult(cfg, meta)

	rng := rand.New(rand.NewPCG(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1))
	resample := cfg.serviceSampler()
	free := make([]int64, n*meta.Rows) // per-stage, per-port next-free cycle
	pending := make([]*cycleBuckets, n)
	for s := range pending {
		pending[s] = newCycleBuckets()
	}

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, "fast", new(probeScratch))
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists

	fi := cfg.Fault
	var slots []fastMsg
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
		slots = append(slots, fastMsg{})
		if pc != nil {
			pc.slotAllocs++
		}
		return int32(len(slots) - 1)
	}

	inFlight := int64(0)
	active := int64(0) // arrived at stage 1 but not yet exited (network backlog)
	exhausted := false
	covered := int64(0) // arrivals at cycles < covered are all enqueued
	vec := make([]float64, n)
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
		if active > maxInFlight {
			// Backlog growing without bound: the divergence signature of
			// a configuration at or beyond m·λ = 1.
			res.truncate(t, true)
			return res, nil
		}
		if t > drainLimit {
			// Still holding messages past the drain budget: saturated.
			res.truncate(t, true)
			return res, nil
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
			res.Offered += int64(blk.Len())
			for i := 0; i < blk.Len(); i++ {
				si := alloc()
				m := &slots[si]
				m.row, m.dest, m.svc, m.meas = blk.In[i], blk.Dest[i], blk.Svc[i], blk.Meas[i]
				m.wsum = 0
				if cfg.TrackStageWaits {
					if cap(m.waits) < n {
						m.waits = make([]int32, n)
					}
					m.waits = m.waits[:n]
				}
				pending[0].push(int64(blk.T[i]), si)
				if pc != nil {
					pc.enter(0)
					pc.admit(si, m.meas, int64(blk.T[i]), m.dest)
				}
				inFlight++
			}
		}
		if inFlight == 0 {
			if exhausted {
				break
			}
			continue
		}

		for stage := 0; stage < n; stage++ {
			bk := pending[stage].take(t)
			if len(bk) == 0 {
				pending[stage].recycle(bk)
				continue
			}
			if pc != nil {
				pc.leave(stage, int64(len(bk)))
			}
			if stage == 0 {
				active += int64(len(bk))
				if pc != nil {
					pc.active(active)
				}
			}
			// Random service order among simultaneous arrivals.
			rng.Shuffle(len(bk), func(a, b int) { bk[a], bk[b] = bk[b], bk[a] })
			stageFree := free[stage*meta.Rows : (stage+1)*meta.Rows]
			for _, si := range bk {
				m := &slots[si]
				digit := meta.DigitOf(m.dest, stage+1)
				port := meta.NextRow(m.row, digit)
				s := t
				if f := stageFree[port]; f > s {
					s = f
				}
				svc := int64(m.svc)
				if resample != nil {
					svc = int64(resample.Sample(rng.Float64(), rng.Float64()))
				}
				stageFree[port] = s + svc
				w := int32(s - t)
				m.wsum += w
				if m.meas {
					res.StageWait[stage].Add(float64(w))
					if res.HotWait != nil && m.dest == 0 {
						res.HotWait[stage].Add(float64(w))
					}
					if wh != nil {
						wh[stage].Add(int(w))
					}
				}
				if pc != nil {
					pc.stageObs(si, stage, m.meas, t, s, s+svc)
				}
				if m.waits != nil {
					m.waits[stage] = w
				}
				if stage+1 < n {
					m.row = port
					pending[stage+1].push(s+1, si)
					if pc != nil {
						pc.enter(stage + 1)
					}
				} else {
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
					inFlight--
					active--
				}
			}
			pending[stage].recycle(bk)
		}
	}
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages (p too small or horizon too short)")
	}
	return res, nil
}
