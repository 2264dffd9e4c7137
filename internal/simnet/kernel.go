package simnet

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"banyan/internal/stats"
)

// RunKernelSource executes the batch kernel against an arrival source.
//
// The kernel is the production fast engine (Run, RunCtx and RunTrace
// all route here): a batched, structure-of-arrays rewrite of the
// message-level algorithm in RunSource. It produces byte-identical
// Results to the reference engine at every seed — same RNG stream, same
// batch orders, same truncation decisions — while allocating nothing on
// the hot path:
//
//   - in-flight message state lives in a pooled arena of flat slot
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
//     is an inlined Fisher–Yates consuming draws exactly like
//     math/rand/v2's Shuffle.
//
// The same kernel runs the graph engine's committed mode (graph.go):
// the wiring arrives as data — per-stage next-row tables and digit
// divisors — and replaces the omega arithmetic, with failed-link
// resolution and per-switch telemetry switched on only when configured.
//
// The source must deliver blocks whose messages are ordered by arrival
// cycle (the ArrivalSource contract); the kernel consumes each block
// with a cursor instead of re-bucketing its messages.
func RunKernelSource(cfg *Config, src ArrivalSource) (*Result, error) {
	return RunKernelSourceCtx(context.Background(), cfg, src)
}

// RunKernelSourceCtx is RunKernelSource with cancellation and
// saturation guards, behaving exactly like RunSourceCtx.
func RunKernelSourceCtx(ctx context.Context, cfg *Config, src ArrivalSource) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ar := getArena()
	defer ar.release()
	return runKernel(ctx, cfg, src, ar, nil)
}

// runKernel is the batch-kernel engine body. It mirrors RunSourceCtx
// decision for decision: every RNG draw (one Fisher–Yates shuffle per
// non-empty (cycle, stage) batch, two uniforms per message when service
// is resampled), every statistics update and every guard fires in the
// identical order, so the two engines are byte-identical at every seed.
//
// With a non-nil g the kernel runs the graph engine's committed mode:
// each stage's routing comes from the wiring tables (g.next, g.div)
// instead of the omega shift, failed links go through g.resolve, and the
// per-switch telemetry (backlog counters, SwitchWaitHists, SwitchSat) is
// kept alongside. Nothing else changes, so under the omega wiring the
// graph engine is byte-identical to the stage model by construction.
func runKernel(ctx context.Context, cfg *Config, src ArrivalSource, ar *arena, g *graphNet) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	engine := "graph"
	if g == nil {
		engine = "fast"
		if err := cfg.requireStageModel(engine); err != nil {
			return nil, err
		}
	}
	meta := src.Meta()
	n := meta.Stages
	rowsN := meta.Rows
	k := meta.K
	res := &Result{
		Rows:      rowsN,
		Wrapped:   meta.Wrapped,
		StageWait: make([]stats.Welford, n),
	}
	trackWaits := cfg.TrackStageWaits
	if trackWaits {
		res.StageCov = stats.NewCovMatrix(n)
	}
	if cfg.HotModule > 0 {
		res.HotWait = make([]stats.Welford, n)
	}

	rng := newKrand(cfg.Seed^0xa5a5a5a5a5a5a5a5, cfg.Seed+1)
	resample := cfg.serviceSampler()
	ar.prepare(n, rowsN, trackWaits)

	var t int64
	var pc *runProbe
	if cfg.Probe != nil {
		pc = newRunProbe(cfg, n, engine)
		if g != nil {
			pc.switchHW, pc.switchBlocked = g.hw, g.blocked
		}
		defer func() { pc.flush(cfg.Probe, t, res) }()
	}
	wh := cfg.WaitHists
	fi := cfg.Fault

	// Graph wiring: the failure policy, the per-switch wait hists and
	// the per-switch release schedule. A message routed to a port at
	// cycle t with committed start s occupies its switch over [t, s]; rel
	// holds the switch's flat counter index at s+1, when the residency
	// ends. rel exists only when the per-switch counters do.
	var swh [][]*stats.Hist
	var rel *kring
	haveFail := false
	if g != nil {
		swh, haveFail = g.swh, g.failed != nil
		if cfg.TrackSwitches {
			defer func() { res.SwitchSat = g.switchSat(cfg) }()
		}
		if g.load != nil {
			rel = &ar.rel
			rel.reset(ar.ringChunk)
		}
	}

	// Routing tables: shift/mask when the radix (hence the row count, a
	// power of k) is a power of two, the divisor table otherwise. The
	// graph wiring brings its own digit divisors (flip consumes digits
	// least-significant first); they are powers of k too.
	divs := meta.digitDiv
	if g != nil {
		divs = g.div
	}
	pow2 := k&(k-1) == 0
	var logk uint
	var kmask uint32
	var rowMask int32
	var shifts []uint
	if pow2 {
		logk = uint(bits.TrailingZeros32(uint32(k)))
		kmask = uint32(k - 1)
		rowMask = int32(rowsN - 1)
		shifts = make([]uint, n)
		for j := 0; j < n; j++ {
			shifts[j] = logk * uint(n-1-j)
			if g != nil {
				shifts[j] = uint(bits.TrailingZeros32(divs[j]))
			}
		}
	}

	// fastBody selects the specialized service loop: nothing optional is
	// switched on, so the per-message body reduces to routing, port
	// contention and the two mandatory statistics. On a graph wiring that
	// also means no failed links and no per-switch telemetry.
	fastBody := pc == nil && resample == nil && !trackWaits &&
		res.HotWait == nil && wh == nil && !haveFail && rel == nil && swh == nil

	msl := ar.msl
	waits := ar.waits
	free := ar.free
	rings := ar.rings
	vec := ar.vec

	inFlight := int64(0)
	active := int64(0) // arrived at stage 1 but not yet exited (network backlog)
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
		if rel != nil {
			// Switch residencies ending by this cycle (including any in a
			// skipped idle gap) are released before any message joins a
			// switch at t.
			ar.batch = g.release(rel, t, ar.batch)
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
			inFlight += int64(m)
			blkT, blkIn, blkDest, blkSvc, blkMeas = blk.T, blk.In, blk.Dest, blk.Svc, blk.Meas
			cur, blkLen = 0, m
		}
		if inFlight == 0 {
			if exhausted {
				break
			}
			// Nothing in flight and no arrival before covered: skip the
			// idle cycles in one step. The rings are all empty, so their
			// floors can jump with the clock; no guard below could have
			// fired during the gap (arrival cycles never exceed the
			// drain limit, and the backlog is zero). The switch release
			// schedule is not empty — departed messages can still hold
			// their last switch — so its floor stays put: the release
			// call at cycle covered catches up on the gap's cycles
			// before anything joins a switch.
			if covered > t+1 {
				for i := range rings {
					rings[i].floor = covered
				}
				t = covered - 1
			}
			continue
		}

		for stage := 0; stage < n; stage++ {
			var bk []int32
			if stage == 0 {
				// This cycle's arrivals are the block's next run of
				// cursor entries; allocate their slots in trace order
				// (so probe admission ordinals match the reference
				// engine) and batch them for the shuffle.
				bk = ar.batch[:0]
				for cur < blkLen && int64(blkT[cur]) == t {
					var si int32
					if fn := len(ar.freeSlots); fn > 0 {
						si = ar.freeSlots[fn-1]
						ar.freeSlots = ar.freeSlots[:fn-1]
						if pc != nil {
							pc.freeHits++
						}
					} else {
						if fi != nil {
							fi.OnSlotAlloc() // may panic with a typed injected error
						}
						if ar.used == len(msl) {
							ar.growSlots(n, trackWaits)
							msl = ar.msl
							waits = ar.waits
						}
						si = int32(ar.used)
						ar.used++
						if pc != nil {
							pc.slotAllocs++
						}
					}
					ms := blkMeas[cur]
					msl[si] = mrec{
						dest: blkDest[cur],
						row:  blkIn[cur],
						svc:  blkSvc[cur],
						meas: ms,
					}
					if pc != nil {
						pc.enter(0)
						pc.admit(si, ms, t, blkDest[cur])
					}
					bk = append(bk, si)
					cur++
				}
				ar.batch = bk
			} else {
				r := &rings[stage-1]
				if r.count == 0 {
					r.floor = t + 1
					continue
				}
				bk = r.take(t, ar.batch[:0])
				ar.batch = bk
			}
			if len(bk) == 0 {
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
			// Random service order among simultaneous arrivals: inlined
			// Fisher–Yates drawing exactly like rand/v2's Shuffle.
			for i := len(bk) - 1; i > 0; i-- {
				j := int(rng.Uint64N(uint64(i + 1)))
				bk[i], bk[j] = bk[j], bk[i]
			}
			stageFree := free[stage*rowsN : (stage+1)*rowsN]
			sw := &res.StageWait[stage]
			var hw *stats.Welford
			if res.HotWait != nil {
				hw = &res.HotWait[stage]
			}
			var whS *stats.Hist
			if wh != nil {
				whS = wh[stage]
			}
			last := stage+1 == n
			var rg *kring
			if !last {
				rg = &rings[stage]
			}
			var shift uint
			var div uint32
			if pow2 {
				shift = shifts[stage]
			} else {
				div = divs[stage]
			}
			var nextTbl, swid []int32
			var swhS []*stats.Hist
			var relBase int32
			if g != nil {
				nextTbl, swid = g.next[stage], g.swid[stage]
				if swh != nil {
					swhS = swh[stage]
				}
				if rel != nil {
					relBase = int32(stage * len(g.load[stage]))
				}
			}
			if fastBody && nextTbl != nil {
				// The specialized loop below, with the port looked up in the
				// wiring's next-row table instead of the omega shift.
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
					if !last {
						m.row = port
						rg.push(s+1, si)
					} else {
						if m.meas {
							res.Messages++
							res.TotalWait.Add(int(m.wsum))
						}
						ar.freeSlots = append(ar.freeSlots, si)
						inFlight--
						active--
					}
				}
				continue
			}
			if fastBody {
				// Specialized service loop for the plain configuration
				// (no probe, no resampling, no hot spot, no wait hists,
				// no per-stage wait tracking). Every statistics update
				// below appears in the general loop in the same order on
				// the same values, so the two bodies are byte-identical;
				// what the specialization buys is a branch-free body the
				// compiler can register-allocate tightly, on the loop
				// that runs once per message per stage.
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
					if !last {
						m.row = port
						rg.push(s+1, si)
					} else {
						if m.meas {
							res.Messages++
							res.TotalWait.Add(int(m.wsum))
						}
						ar.freeSlots = append(ar.freeSlots, si)
						inFlight--
						active--
					}
				}
				continue
			}
			for _, si := range bk {
				m := &msl[si]
				dest := m.dest
				var port int32
				if nextTbl != nil {
					var digit int
					if pow2 {
						digit = int((dest >> shift) & kmask)
					} else {
						digit = int(dest/div) % k
					}
					if haveFail {
						var dropped, deflected bool
						port, dropped, deflected = g.resolve(stage, m.row, digit)
						if dropped {
							res.Dropped++
							if pc != nil {
								pc.dropSpan(si)
							}
							ar.freeSlots = append(ar.freeSlots, si)
							inFlight--
							active--
							continue
						}
						if deflected {
							res.Deflected++
						}
					} else {
						port = nextTbl[int(m.row)*k+digit]
					}
				} else if pow2 {
					port = (m.row<<logk | int32((dest>>shift)&kmask)) & rowMask
				} else {
					digit := int(dest/div) % k
					port = int32((int(m.row)*k + digit) % rowsN)
				}
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
				ms := m.meas
				if ms {
					sw.Add(float64(w))
					if hw != nil && dest == 0 {
						hw.Add(float64(w))
					}
					if whS != nil {
						whS.Add(int(w))
					}
					if swhS != nil {
						swhS[swid[port]].Add(int(w))
					}
				}
				if pc != nil {
					pc.stageObs(si, stage, ms, t, s, s+svc)
				}
				if trackWaits {
					waits[int(si)*n+stage] = int16(w)
				}
				if rel != nil {
					g.swJoin(stage, port)
					rel.push(s+1, relBase+swid[port])
				}
				if !last {
					m.row = port
					rg.push(s+1, si)
					if pc != nil {
						pc.enter(stage + 1)
					}
				} else {
					if haveFail && port != int32(dest) {
						res.Misrouted++
					}
					if ms {
						res.Messages++
						res.TotalWait.Add(int(m.wsum))
						if res.StageCov != nil {
							base := int(si) * n
							for j := 0; j < n; j++ {
								vec[j] = float64(waits[base+j])
							}
							res.StageCov.Add(vec)
						}
					}
					if pc != nil {
						pc.finishObs(si, ms, int64(m.wsum))
					}
					ar.freeSlots = append(ar.freeSlots, si)
					inFlight--
					active--
				}
			}
		}
	}
	if rel != nil {
		// Drained: release the residencies still pending after the last
		// departure, so every switch backlog counter ends at zero.
		ar.batch = g.release(rel, math.MaxInt64-1, ar.batch)
	}
	if res.Messages == 0 {
		return nil, fmt.Errorf("simnet: no measured messages (p too small or horizon too short)")
	}
	return res, nil
}
