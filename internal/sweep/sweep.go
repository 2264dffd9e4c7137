// Package sweep runs deterministic parameter sweeps of the banyan
// simulators across a worker pool.
//
// The paper's evaluation — and any calibration or capacity-planning study
// built on it — is a grid of simulation points over
// (k, n, p, m, bulk, q, BufferCap) × replications. This package turns
// such a grid into a batch of jobs executed by a bounded pool of
// goroutines, with three guarantees:
//
//   - Determinism: every point's seed is derived from the runner's root
//     seed and a canonical hash of the point's configuration, and
//     replications are aggregated in replication order. Results are
//     therefore byte-identical regardless of worker count or scheduling
//     order, and independent of the position of a point within the batch.
//
//   - Caching: completed points are stored in an optional Cache keyed by
//     the same canonical hash, so overlapping grids (e.g. the total-delay
//     tables and the corresponding figures) pay for each point once.
//
//   - Observability: progress and throughput counters (points done,
//     measured messages per second, drops) are maintained atomically and
//     exposed through a pluggable Reporter.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"banyan/internal/faultinject"
	"banyan/internal/obs"
	"banyan/internal/simnet"
	"banyan/internal/vr"
)

// Engine selects which simulator executes a point; see simnet.Engine.
// Reference is byte-identical to Fast at every seed, so a point hashes —
// and caches — the same under either; selecting it only changes which
// code path computes the (identical) result. Graph points hash
// separately even where the graph engine reproduces Fast: they carry
// graph-only config fields and per-switch verdicts in their results.
type Engine = simnet.Engine

// The engines, with simnet's values and names.
const (
	Fast      = simnet.Fast
	Literal   = simnet.Literal
	Reference = simnet.Reference
	Graph     = simnet.Graph
)

// Point is one parameter point of a sweep. Cfg.Seed is ignored: the
// runner derives per-point seeds from its root seed so that results do
// not depend on how the batch is scheduled.
type Point struct {
	Label  string
	Cfg    simnet.Config
	Engine Engine
	Reps   int // replications; 0 means 1
}

func (p *Point) reps() int {
	if p.Reps <= 0 {
		return 1
	}
	return p.Reps
}

// PointResult carries one completed sweep point.
type PointResult struct {
	Point Point
	Key   uint64 // canonical config hash (cache key)
	Seed  uint64 // base seed the replication seeds were split from

	// Runs holds the per-replication results in replication order. On a
	// failed point, entries may be nil (never started) or partial
	// Truncated results (stopped by cancellation or the wall-clock
	// budget).
	Runs []*simnet.Result
	// Agg pools the replications; nil when the point failed.
	Agg *simnet.Replicated
	// VR is the variance-reduced estimate of the mean total wait —
	// control-variate-adjusted when the plan fits controls, with a
	// Student-t interval — computed whenever the runner has a VR plan.
	// Nil on failed points and on runs without a plan.
	VR *vr.Estimate
	// Drift is the drift monitor's report on the point's waiting times,
	// pooled over its replications (see Runner.Drift). Nil without a
	// monitor, on failed and truncated points, when the check itself
	// failed, and on points this run did not simulate: cache shares,
	// journal resumes and in-batch aliases, like Cost.
	Drift *DriftReport

	// Err is the point's terminal error: a validation failure, a
	// recovered panic (*PanicError), a simulation error that survived
	// every retry, a context cancellation, a watchdog stall
	// (*StallError), or a wall-clock budget overrun. Nil for points that
	// completed — including deterministic saturation truncations, which
	// are flagged on the Result instead.
	Err error

	// Recovery lists the recovery actions the point survived on its way
	// to completion — "retry", "watchdog" — in the order they happened.
	// Journaled alongside the results, so a resumed sweep knows which of
	// its points needed help.
	Recovery []string

	// Cost is the resource cost this run actually paid for the point,
	// accumulated across every simulation attempt (see PointCost). It is
	// hash-excluded and result-neutral, and it is attribution, not
	// identity: points served from the cache, the journal, or an
	// in-batch alias carry a nil Cost — their price was paid (and
	// recorded) where the simulation happened. Wall clocks are not
	// reproducible, so Cost never enters the resume journal; the
	// RunLedger artifact and point_done events are the durable record.
	Cost *PointCost
}

// Result returns the first replication's result — the common case for
// single-replication sweeps. It is nil when the point failed before its
// first replication produced anything.
func (pr *PointResult) Result() *simnet.Result {
	if len(pr.Runs) == 0 {
		return nil
	}
	return pr.Runs[0]
}

// Truncated reports whether any replication of the point stopped early
// (saturation guard, cancellation, or wall-clock budget).
func (pr *PointResult) Truncated() bool {
	for _, res := range pr.Runs {
		if res != nil && res.Truncated {
			return true
		}
	}
	return false
}

// Runner executes sweep batches. The zero value is usable: it runs with
// GOMAXPROCS workers, root seed 0, no cache and no reporter. A Runner
// may be shared by several batches (and goroutines) to pool its cache
// and counters.
type Runner struct {
	// Parallelism bounds the worker pool; 0 means GOMAXPROCS.
	Parallelism int
	// RootSeed is the seed every per-point seed is derived from.
	RootSeed uint64
	// VR selects the variance-reduction plan: common random numbers,
	// control variates, and CI-targeted sequential stopping (see
	// internal/vr). Nil (or the zero plan) is bit-identical to a run
	// without the layer. Plans whose salt is non-zero (CRN, adaptive
	// stopping — anything that changes seeds or replication counts)
	// address the cache and journal under salted keys, so VR and
	// non-VR artifacts never mix.
	VR *vr.Plan
	// Cache, when non-nil, stores completed points across Run calls.
	Cache *Cache
	// Reporter, when non-nil, observes point completions.
	Reporter Reporter

	// PointBudget bounds the wall-clock time of each replication
	// (0 = unbounded). An over-budget replication stops at a clean cycle
	// boundary; its partial Truncated result stays in PointResult.Runs
	// and the point fails with a deadline error. Budget-truncated
	// results are never cached or journaled — where a run stops under a
	// wall clock is not reproducible.
	PointBudget time.Duration
	// MaxRetries is how many times a failed replication (panic or
	// simulation error) is retried before the point is marked failed
	// (0 = no retries). Cancellations and budget overruns never retry.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling each
	// attempt and capped at 32×; 0 means 50ms.
	RetryBackoff time.Duration
	// Journal, when non-nil, records each cleanly completed point and
	// serves journaled points on later runs — the checkpoint/resume
	// path. See OpenJournal.
	Journal *Journal
	// Events, when non-nil, receives one structured event per point
	// lifecycle transition (started, retried, truncated, journaled,
	// done, failed, cached, resumed, aliased). See internal/obs.
	Events obs.Sink
	// Probe, when non-nil, is attached to every simulation this runner
	// executes (simnet.Config.Probe), collecting engine internals. It is
	// excluded from config hashing, so attaching one never perturbs
	// keys, seeds, or results.
	Probe *obs.SimProbe
	// Drift, when non-nil, collects exact per-stage waiting-time
	// histograms for every freshly simulated point
	// (simnet.Config.WaitHists — also hash-excluded and result-neutral)
	// and checks the merged distributions against the analytic model
	// when the point completes, recording the report in
	// PointResult.Drift and emitting an EventDrift naming the offending
	// stage on divergence. Cached, journaled and aliased
	// points are served without re-simulation and are not re-checked.
	Drift *DriftMonitor
	// Fault, when non-nil, arms the deterministic chaos injection points
	// (see internal/faultinject) on every freshly simulated replication
	// and on the journal's append/checkpoint path. Hash-excluded and —
	// because armed faults fire at most once per replication plan —
	// recovery converges back to the fault-free results bit for bit.
	Fault *faultinject.Injector
	// Watchdog, when non-nil, deadlines each replication attempt with a
	// budget derived from recent replication wall times and converts a
	// hang into a typed, retryable *StallError. See Watchdog.
	Watchdog *Watchdog
	// Ledger, when non-nil, records every settled point — fresh, failed,
	// cached, resumed, or aliased — with its attributed cost, so
	// BuildLedger can reconcile an end-of-run accounting against the
	// counters. See LedgerCollector.
	Ledger *LedgerCollector

	ctr Counters
	// repWall holds the exponentially-weighted mean replication wall
	// time in nanoseconds — the watchdog's throughput signal.
	repWall atomic.Int64
	// notesMu guards every PointResult.Recovery append (PointResult
	// itself stays a plain copyable struct).
	notesMu sync.Mutex

	// runRep, when non-nil, replaces the simulation engines (test hook
	// for fault injection).
	runRep func(context.Context, Engine, *simnet.Config) (*simnet.Result, error)
}

// Counters returns the runner's cumulative progress counters.
func (r *Runner) Counters() *Counters { return &r.ctr }

func (r *Runner) parallelism() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// waves returns the replication counts at which a point may settle, in
// increasing order; the last one is the point's replication budget.
// Under CI-targeted stopping they are the plan's checkpoints; otherwise
// a point has one wave, its configured count.
func (r *Runner) waves(p *Point) []int {
	if r.VR.Adaptive() {
		return r.VR.Checkpoints(p.reps())
	}
	return []int{p.reps()}
}

// estimate returns the variance-reduced estimate over a point's runs,
// or nil without a VR plan. Under CI-targeted stopping it is marked
// Stopped when its half-width meets the target.
func (r *Runner) estimate(p *Point, runs []*simnet.Result) *vr.Estimate {
	if !r.VR.Enabled() {
		return nil
	}
	est := r.VR.Estimate(&p.Cfg, runs)
	est.Stopped = r.VR.Adaptive() && est.HalfWidth <= r.VR.TargetCI
	return est
}

// settles reports whether the stopping rule ends a point after wave w:
// always at the last wave, earlier only when est met the CI target.
func settles(waves []int, w int, est *vr.Estimate) bool {
	return w == len(waves)-1 || (est != nil && est.Stopped)
}

// artifactKey addresses the cache and journal: the canonical config
// hash XORed with the VR plan's salt, so runs produced under a
// different seed derivation or stopping rule never alias runs produced
// without one. A zero salt (no seed-affecting VR, including plain
// control variates) preserves legacy addressing bit for bit.
func (r *Runner) artifactKey(key uint64) uint64 { return key ^ r.VR.Salt() }

// resume restores pr from the journal when the journal holds a
// replication count the stopping rule settles at: a wave boundary that
// is the last wave or meets the CI target. The rule is deterministic
// and the salted batch key guarantees the journal was written under the
// same plan, so such a count is the one this run would reproduce. Any
// other journaled count, such as an early wave that missed the target,
// is simulated again.
func (r *Runner) resume(pr *PointResult, waves []int) bool {
	runs, ok := r.Journal.get(r.artifactKey(pr.Key))
	if !ok {
		return false
	}
	w := slices.Index(waves, len(runs))
	if w < 0 {
		return false
	}
	est := r.estimate(&pr.Point, runs)
	if !settles(waves, w, est) {
		return false
	}
	// Aggregation in replication order reproduces the pooled statistics
	// bit for bit.
	pr.Runs, pr.VR = runs, est
	pr.Agg = simnet.Aggregate(runs, pr.Point.Cfg.Stages)
	return true
}

// crnStream is the SplitSeed stream index reserved for the sweep-wide
// common-random-numbers base, so CRN replication seeds are shared by
// every point of a root seed but disjoint from the per-point streams.
const crnStream = 0x43524e62617365 // "CRNbase"

// Run executes every point of the batch with Background context; see
// RunCtx.
func (r *Runner) Run(points []Point) ([]*PointResult, error) {
	return r.RunCtx(context.Background(), points)
}

// RunCtx executes every point of the batch and returns results in batch
// order. Identical points (same canonical hash) within the batch are
// simulated once and share their result; cached and journaled points are
// returned without simulation.
//
// The batch degrades gracefully instead of aborting: invalid points are
// all reported up front in one joined error (before any simulation
// starts); a replication that panics or fails is retried up to
// MaxRetries times and then marks only its own point via PointResult.Err;
// cancelling ctx stops in-flight simulations at a clean cycle boundary
// and marks the unfinished points. Whenever any point carries an error
// the returned slice is still fully populated — healthy points hold
// normal results — and the second return value joins every per-point
// error, so callers that only check err keep their old abort semantics.
func (r *Runner) RunCtx(ctx context.Context, points []Point) ([]*PointResult, error) {
	out := make([]*PointResult, len(points))
	if len(points) == 0 {
		return out, nil
	}

	// Validate every point before any work starts, and report every
	// invalid point — not just the first — so a misbuilt grid is fixed
	// in one round trip.
	var verrs []error
	for i := range points {
		if err := points[i].Cfg.Validate(); err != nil {
			verrs = append(verrs, fmt.Errorf("sweep: point %q: %w", points[i].Label, err))
		}
	}
	if len(verrs) > 0 {
		return nil, errors.Join(verrs...)
	}
	if r.Journal != nil {
		// Bind the journal to this batch's identity before serving any
		// resume hits: a journal written under different flags fails here
		// with a typed *ConfigMismatchError instead of silently
		// re-running (or worse, silently skipping) every point.
		// The batch key carries the VR salt for the same reason point
		// artifacts do: a journal written under a different plan replays
		// different simulations.
		if err := r.Journal.bind(r.artifactKey(BatchKey(points, r.RootSeed))); err != nil {
			return nil, err
		}
		if r.Fault != nil {
			r.Journal.setFault(r.Fault.Journal())
		}
	}
	// crnBase is the sweep-wide replication seed base shared by every
	// point when common random numbers are on.
	crnBase := simnet.SplitSeed(r.RootSeed, crnStream)

	// Resolve keys, seeds, cache/journal hits and in-batch duplicates up
	// front, so the first wave of jobs is fixed before any worker starts.
	type pointState struct {
		pr      *PointResult
		aliasOf int // index of the identical earlier point, or -1
		// waves lists the replication counts at which the point may
		// settle (see Runner.waves); wave indexes the one in flight and
		// pending counts its replications still running. Both are
		// written under mu by the worker that settles a wave.
		waves     []int
		wave      int
		pending   int
		failed    bool
		started   bool
		startedAt time.Time
		// drift holds each replication's config, whose drift histograms
		// the engine filled (see newDriftHists); nil unless r.Drift is
		// set and the point is freshly simulated.
		drift []*simnet.Config
	}
	states := make([]pointState, len(points))
	repsTotal := 0
	for i := range points {
		states[i].waves = r.waves(&points[i])
		repsTotal += states[i].waves[len(states[i].waves)-1]
	}
	r.ctr.begin(len(points), repsTotal)
	defer r.ctr.end()

	byKey := make(map[uint64]int, len(points))
	// A job is one replication of one point.
	type job struct{ pi, rep int }
	// repJobs lists replications [from, to) of point pi as jobs.
	repJobs := func(pi, from, to int) []job {
		out := make([]job, 0, to-from)
		for rep := from; rep < to; rep++ {
			out = append(out, job{pi: pi, rep: rep})
		}
		return out
	}
	var jobs []job
	for i := range points {
		p, st := &points[i], &states[i]
		key := pointKey(p, r.RootSeed)
		budget := st.waves[len(st.waves)-1]
		st.aliasOf = -1
		if j, ok := byKey[key]; ok {
			// Terminal state: the alias settles now, never via a worker;
			// its ledger row is written once the batch has resolved.
			st.aliasOf = j
			r.ctr.pointSettled(LedgerAliased, budget)
			r.emit(obs.Event{
				Event: obs.EventPointAliased, Label: p.Label,
				Key: keyHex(key), Engine: p.Engine.String(),
			})
			continue
		}
		byKey[key] = i
		st.pr = &PointResult{
			Point: *p,
			Key:   key,
			Seed:  simnet.SplitSeed(r.RootSeed, key),
			Runs:  make([]*simnet.Result, budget),
		}
		if r.Cache != nil {
			if hit, ok := r.Cache.get(r.artifactKey(key)); ok {
				// Share the cached runs but relabel: the hit may have been
				// computed under a different Point.Label in an earlier
				// batch, and callers key their output off the label.
				shared := *hit
				shared.Point = *p
				// The hit's cost was attributed where it was paid; a
				// share costs (essentially) nothing and must not
				// double-count. Nor was it checked for drift here.
				shared.Cost, shared.Drift = nil, nil
				if shared.VR == nil || !r.VR.Enabled() {
					shared.VR = r.estimate(p, shared.Runs)
				}
				st.pr = &shared
				r.settle(&shared, LedgerCached, budget, pointEvent(obs.EventPointCached, &shared))
				continue
			}
		}
		if r.Journal != nil && r.resume(st.pr, st.waves) {
			if r.Cache != nil {
				r.Cache.put(r.artifactKey(key), st.pr)
			}
			r.settle(st.pr, LedgerResumed, budget, pointEvent(obs.EventPointResumed, st.pr))
			continue
		}
		st.pending = st.waves[0]
		if r.Drift != nil {
			st.drift = make([]*simnet.Config, budget)
		}
		jobs = append(jobs, repJobs(i, 0, st.waves[0])...)
	}

	var (
		mu         sync.Mutex
		journalErr error
		wg         sync.WaitGroup
	)
	// process runs one job to completion and, when it settles the last
	// pending replication of a wave short of the stopping rule, returns
	// the point's next wave of jobs.
	process := func(j job) []job {
		st := &states[j.pi]
		mu.Lock()
		skip := st.failed
		if !skip && !st.started {
			st.started = true
			st.startedAt = time.Now()
			mu.Unlock()
			r.emit(pointEvent(obs.EventPointStarted, st.pr))
		} else {
			mu.Unlock()
		}
		var res *simnet.Result
		err := ctx.Err()
		if err == nil && !skip {
			// Each replication re-derives its seed from the point's
			// canonical key, so the result cannot depend on worker
			// scheduling, retries, or batch composition. The VR plan
			// may redirect the derivation to the CRN base — still a
			// pure function of (plan, point, rep).
			cfg := st.pr.Point.Cfg
			cfg.Seed = r.VR.RepSeed(st.pr.Seed, crnBase, j.rep)
			cfg.SyncDraws = r.VR.Synchronized()
			if r.Probe != nil {
				cfg.Probe = r.Probe
			}
			if r.Fault != nil {
				// The fault plan is a pure function of (schedule seed,
				// point key, rep) and is cached per replication, so
				// retries share its one-shot state.
				cfg.Fault = r.Fault.Rep(st.pr.Key, j.rep)
			}
			if st.drift != nil {
				newDriftHists(&cfg, st.pr.Point.Engine == Graph)
			}
			res, err = r.attempt(ctx, st.pr, j.rep, &cfg)
			if st.drift != nil {
				// attempt gives every retry fresh histograms in cfg.
				// Each replication slot is owned by exactly one worker,
				// like Runs.
				st.drift[j.rep] = &cfg
			}
		}
		// A cancelled or skipped replication (a sibling already failed
		// the point) resolves without running; err is nil when merely
		// skipped.
		if res != nil {
			st.pr.Runs[j.rep] = res // partial truncated results kept for inspection
			if err == nil {
				r.ctr.repDone(res)
				if res.Truncated {
					ev := pointEvent(obs.EventPointTruncated, st.pr)
					ev.Rep = j.rep
					ev.Cycles = res.TruncatedAt
					ev.Messages = res.Messages
					r.emit(ev)
				}
			}
		}
		if err != nil || res == nil {
			r.ctr.repSettled()
		}
		mu.Lock()
		if err != nil {
			st.failed = true
			if st.pr.Err == nil {
				st.pr.Err = fmt.Errorf("sweep: point %q rep %d: %w", st.pr.Point.Label, j.rep, err)
			}
		}
		st.pending--
		last := st.pending == 0
		failed := st.failed
		startedAt := st.startedAt
		mu.Unlock()
		if !last {
			return nil
		}
		// The wave is settled; no other worker touches the point now.
		n := st.waves[st.wave]
		var est *vr.Estimate
		if !failed {
			// The stopping rule consults the estimate on the wave
			// cadence only — never more often, to protect coverage (see
			// internal/vr).
			est = r.estimate(&st.pr.Point, st.pr.Runs[:n])
			if !settles(st.waves, st.wave, est) {
				cerr := ctx.Err()
				if cerr == nil {
					mu.Lock()
					st.wave++
					st.pending = st.waves[st.wave] - n
					mu.Unlock()
					return repJobs(j.pi, n, st.waves[st.wave])
				}
				// Cut off between waves: the rule wants replications
				// that will never run, so the point is as unfinished as
				// one cut mid-wave and must not be cached or journaled.
				failed = true
				st.pr.Err = fmt.Errorf("sweep: point %q rep %d: %w", st.pr.Point.Label, n, cerr)
			}
		}
		wallMS := 0.0
		if !startedAt.IsZero() {
			wallMS = float64(time.Since(startedAt)) / float64(time.Millisecond)
		}
		// Replications beyond the settled wave never ran; settling them
		// keeps the settled invariant and the ETA exact.
		unrun := len(st.pr.Runs) - n
		if failed {
			r.finalizeCost(st.pr)
			ev := pointEvent(obs.EventPointFailed, st.pr)
			ev.WallMS = wallMS
			ev.Err = st.pr.Err.Error()
			ev.Cost = st.pr.Cost.Digest()
			r.settle(st.pr, LedgerFailed, unrun, ev)
			return nil
		}
		st.pr.VR = est
		if unrun > 0 {
			st.pr.Runs = st.pr.Runs[:n]
			if st.drift != nil {
				st.drift = st.drift[:n]
			}
		}
		if est != nil && est.Stopped {
			sev := pointEvent(obs.EventPointStopped, st.pr)
			sev.Rep = n
			sev.HalfWidth = est.HalfWidth
			r.emit(sev)
		}
		// Aggregation iterates replications in order, so the pooled
		// statistics do not depend on which worker finished last.
		st.pr.Agg = simnet.Aggregate(st.pr.Runs, st.pr.Point.Cfg.Stages)
		// The drift check completes the result before it is shared
		// through the cache.
		stageHists, switches := poolDriftHists(st.drift, st.pr.Point.Cfg.Stages, st.pr.Truncated())
		var driftErr error
		if stageHists != nil {
			st.pr.Drift, driftErr = r.Drift.check(&st.pr.Point.Cfg, stageHists, switches)
		}
		if r.Cache != nil {
			r.Cache.put(r.artifactKey(st.pr.Key), st.pr)
		}
		if r.Journal != nil {
			// Errorless completions are deterministic — including
			// saturation truncations — so they are safe to replay.
			if jerr := r.Journal.append(r.artifactKey(st.pr.Key), st.pr.Point.Label, st.pr.Runs, r.recoveryNotes(st.pr)); jerr != nil {
				mu.Lock()
				if journalErr == nil {
					journalErr = jerr
				}
				mu.Unlock()
			} else {
				r.emit(pointEvent(obs.EventPointJournaled, st.pr))
			}
		}
		r.finalizeCost(st.pr)
		ev := pointEvent(obs.EventPointDone, st.pr)
		ev.WallMS = wallMS
		ev.Cost = st.pr.Cost.Digest()
		for _, run := range st.pr.Runs {
			if run != nil {
				ev.Messages += run.Messages
				ev.Dropped += run.Dropped
			}
		}
		if stageHists != nil {
			ev.Waits = stageQuantiles(stageHists)
		}
		r.settle(st.pr, LedgerDone, unrun, ev)
		if stageHists != nil {
			r.emitDrift(st.pr, driftErr)
		}
		return nil
	}

	// Bounded worker pool over (point, replication) jobs: replication
	// granularity keeps the pool busy even when the batch has fewer
	// points than workers. Workers always drain the job channel — on
	// cancellation or per-point failure the remaining jobs resolve
	// instantly instead of blocking a sender. The channel is unbuffered,
	// so a later wave is sent from a short-lived goroutine rather than
	// by a worker that its own pool would have to receive from.
	// outstanding counts the jobs not yet retired; a wave is added to it
	// before the job that scheduled it retires, so it reaches zero only
	// after the true last job, and the worker retiring that job closes
	// the channel and ends the pool.
	jobCh := make(chan job)
	var outstanding atomic.Int64
	outstanding.Store(int64(len(jobs)))
	for w := min(r.parallelism(), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if next := process(j); len(next) > 0 {
					outstanding.Add(int64(len(next)))
					go func() {
						for _, e := range next {
							jobCh <- e
						}
					}()
				}
				if outstanding.Add(-1) == 0 {
					close(jobCh)
				}
			}
		}()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	wg.Wait()

	var errs []error
	for i := range points {
		st := &states[i]
		if st.aliasOf >= 0 {
			// Identical configuration: deterministic seeds make the
			// result identical too, so share it (relabelled). Like cache
			// shares, an alias carries no cost of its own.
			shared := *states[st.aliasOf].pr
			shared.Point = points[i]
			shared.Cost, shared.Drift = nil, nil
			out[i] = &shared
			if r.Ledger != nil {
				r.Ledger.Observe(&shared, LedgerAliased)
			}
			continue
		}
		out[i] = st.pr
		if st.pr.Err != nil {
			errs = append(errs, st.pr.Err)
		}
	}
	if journalErr != nil {
		errs = append(errs, journalErr)
	}
	return out, errors.Join(errs...)
}

// settle records a point's terminal state — done, failed, cached or
// resumed — in the counters, emits its terminal event, writes its
// ledger row and hands it to the reporter, in that order. unrun counts
// the replications of the point's budget that were never run.
func (r *Runner) settle(pr *PointResult, status LedgerStatus, unrun int, ev obs.Event) {
	r.ctr.pointSettled(status, unrun)
	r.emit(ev)
	if r.Ledger != nil {
		r.Ledger.Observe(pr, status)
	}
	if r.Reporter != nil {
		r.Reporter.PointDone(pr, r.ctr.Snapshot())
	}
}

// finalizeCost stamps a settling point's cost with what the spend
// bought: the replications kept and their variance-reduced effective
// sample size.
func (r *Runner) finalizeCost(pr *PointResult) {
	r.notesMu.Lock()
	defer r.notesMu.Unlock()
	if pr.Cost == nil {
		return
	}
	n := 0
	for _, res := range pr.Runs {
		if res != nil {
			n++
		}
	}
	pr.Cost.Reps = n
	if pr.VR != nil {
		pr.Cost.ESS = pr.VR.ESS
	}
}

// noteRecovery records a recovery action on a point. Workers of one
// point may race here; PointResult itself stays a plain struct (it is
// copied for aliases and cache shares), so the runner holds the lock.
func (r *Runner) noteRecovery(pr *PointResult, note string) {
	r.notesMu.Lock()
	pr.Recovery = append(pr.Recovery, note)
	r.notesMu.Unlock()
}

// recoveryNotes snapshots a point's recovery annotations for the
// journal.
func (r *Runner) recoveryNotes(pr *PointResult) []string {
	r.notesMu.Lock()
	defer r.notesMu.Unlock()
	if len(pr.Recovery) == 0 {
		return nil
	}
	return append([]string(nil), pr.Recovery...)
}

// emit sends an event to the runner's sink, if any.
func (r *Runner) emit(ev obs.Event) {
	if r.Events != nil {
		r.Events.Emit(ev)
	}
}

// keyHex renders a canonical config hash the way events and journals
// spell it.
func keyHex(key uint64) string { return fmt.Sprintf("%016x", key) }

// pointEvent seeds an event with a point's identity fields.
func pointEvent(kind string, pr *PointResult) obs.Event {
	return obs.Event{
		Event:  kind,
		Label:  pr.Point.Label,
		Key:    keyHex(pr.Key),
		Seed:   pr.Seed,
		Engine: pr.Point.Engine.String(),
	}
}

// switchCount is the number of switches per stage of cfg's network:
// k^(stages-1) rows per stage, k rows per switch.
func switchCount(cfg *simnet.Config) int {
	n := 1
	for i := 1; i < cfg.Stages; i++ {
		n *= cfg.K
	}
	return n
}

// Counters accumulates sweep progress. All methods are safe for
// concurrent use.
//
// Every point of every batch reaches exactly one terminal state, so at
// the end of each Run call the invariant
//
//	PointsDone + PointsFailed + PointsAliased == PointsTotal
//
// holds (cached and journal-resumed points count toward PointsDone,
// with PointsCached/PointsResumed as sub-counters). Elapsed covers only
// the time at least one batch was running — a shared Runner left idle
// between batches no longer dilutes its throughput read-outs — and the
// per-second rates are windowed (see obs.Meter), so they report current
// throughput, not a lifetime average.
type Counters struct {
	mu         sync.Mutex
	now        func() time.Time // test hook; nil = time.Now
	active     int              // batches currently inside RunCtx
	batchStart time.Time        // when active went 0 → 1
	busy       time.Duration    // accumulated non-idle wall-clock

	// totals holds the cumulative counts and attributed costs; Snapshot
	// adds the time-dependent fields. Every attempt's cost lands
	// both on its point and here, so the ledger's per-point rows
	// reconcile against these exactly.
	totals      Progress
	repsSettled int64 // done, failed, skipped, or never-to-run

	msgMeter obs.Meter
	repMeter obs.Meter
}

// Progress is a point-in-time snapshot of a sweep's counters.
type Progress struct {
	PointsDone    int64
	PointsFailed  int64 // points that ended with a PointResult.Err
	PointsAliased int64 // in-batch duplicates resolved by sharing
	PointsCached  int64 // of PointsDone: served from the cross-batch cache
	PointsResumed int64 // of PointsDone: served from the checkpoint journal
	PointsTotal   int64
	RepsDone      int64 // replications actually simulated to completion
	RepsTotal     int64 // replications requested, including never-run ones
	Retries       int64 // replication retries after panics or errors
	Truncated     int64 // completed replications stopped early by a guard
	Messages      int64 // measured messages over all completed replications
	Dropped       int64 // messages lost to full buffers
	WatchdogFired int64 // stalled replications the watchdog cancelled (typed retryable)
	// Attributed cost totals over every simulation attempt this runner
	// executed (retries included): wall nanoseconds and simulated
	// cycles, each the exact sum of the per-point costs (see PointCost).
	CostWallNS int64
	CostCycles int64
	// Elapsed is the busy wall-clock time: the union of intervals during
	// which at least one batch was running on this Runner.
	Elapsed time.Duration
	// MessagesPerSec and RepsPerSec are windowed throughputs over the
	// trailing few seconds; until a full second of history exists they
	// fall back to the cumulative average over Elapsed.
	MessagesPerSec float64
	RepsPerSec     float64
	// ETA estimates the time to finish the remaining replications at the
	// current replication rate; zero when unknown (no remaining work, or
	// no rate signal yet).
	ETA time.Duration
}

// Settled reports the terminal-accounting invariant: every point of
// every batch has reached exactly one of done, failed, or aliased.
func (p Progress) Settled() bool {
	return p.PointsDone+p.PointsFailed+p.PointsAliased == p.PointsTotal
}

func (c *Counters) clock() time.Time {
	if c.now != nil {
		return c.now()
	}
	return time.Now()
}

func (c *Counters) begin(points, reps int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.active == 0 {
		c.batchStart = c.clock()
	}
	c.active++
	c.totals.PointsTotal += int64(points)
	c.totals.RepsTotal += int64(reps)
}

// end closes the batch opened by begin, folding its wall-clock interval
// into the busy time.
func (c *Counters) end() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.active--
	if c.active == 0 {
		c.busy += c.clock().Sub(c.batchStart)
	}
}

func (c *Counters) repDone(res *simnet.Result) {
	c.msgMeter.Add(res.Messages)
	c.repMeter.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.RepsDone++
	c.repsSettled++
	c.totals.Messages += res.Messages
	c.totals.Dropped += res.Dropped
	if res.Truncated {
		c.totals.Truncated++
	}
}

// repSettled accounts a replication that ended without a usable result
// (failed, skipped after a sibling's failure, or cancelled), so ETA
// still converges to zero on unhealthy batches.
func (c *Counters) repSettled() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.repsSettled++
}

// pointSettled accounts a point reaching its terminal state, together
// with the unrun replications of its budget: all of them for cached,
// resumed and aliased points, those past the settled wave otherwise.
func (c *Counters) pointSettled(status LedgerStatus, unrun int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch status {
	case LedgerFailed:
		c.totals.PointsFailed++
	case LedgerAliased:
		c.totals.PointsAliased++
	case LedgerCached:
		c.totals.PointsCached++
		c.totals.PointsDone++
	case LedgerResumed:
		c.totals.PointsResumed++
		c.totals.PointsDone++
	default:
		c.totals.PointsDone++
	}
	c.repsSettled += int64(unrun)
}

func (c *Counters) retried() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.Retries++
}

// watchdogFired accounts a replication the watchdog cancelled and
// converted into a typed retryable stall.
func (c *Counters) watchdogFired() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.WatchdogFired++
}

// addCost folds one attempt's attributed cost into the totals.
func (c *Counters) addCost(d PointCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.totals.CostWallNS += d.WallNS
	c.totals.CostCycles += d.Cycles
}

// Snapshot returns the current progress.
func (c *Counters) Snapshot() Progress {
	msgRate := c.msgMeter.Rate()
	repRate := c.repMeter.Rate()
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.totals
	p.Elapsed = c.busy
	if c.active > 0 {
		p.Elapsed += c.clock().Sub(c.batchStart)
	}
	p.MessagesPerSec, p.RepsPerSec = msgRate, repRate
	if s := p.Elapsed.Seconds(); s > 0 {
		// Sub-second sweeps have no complete meter bucket yet; the
		// cumulative busy-time average is the best available signal.
		if p.MessagesPerSec == 0 && p.Messages > 0 {
			p.MessagesPerSec = float64(p.Messages) / s
		}
		if p.RepsPerSec == 0 && p.RepsDone > 0 {
			p.RepsPerSec = float64(p.RepsDone) / s
		}
	}
	if remaining := p.RepsTotal - c.repsSettled; remaining > 0 && p.RepsPerSec > 0 {
		p.ETA = time.Duration(float64(remaining) / p.RepsPerSec * float64(time.Second))
	}
	return p
}

// Register exposes the counters in a metrics registry under the sweep.*
// namespace.
func (c *Counters) Register(reg *obs.Registry) {
	get := func(f func(Progress) float64) func() float64 {
		return func() float64 { return f(c.Snapshot()) }
	}
	reg.Func("sweep.points.total", get(func(p Progress) float64 { return float64(p.PointsTotal) }))
	reg.Func("sweep.points.done", get(func(p Progress) float64 { return float64(p.PointsDone) }))
	reg.Func("sweep.points.failed", get(func(p Progress) float64 { return float64(p.PointsFailed) }))
	reg.Func("sweep.points.aliased", get(func(p Progress) float64 { return float64(p.PointsAliased) }))
	reg.Func("sweep.points.cached", get(func(p Progress) float64 { return float64(p.PointsCached) }))
	reg.Func("sweep.points.resumed", get(func(p Progress) float64 { return float64(p.PointsResumed) }))
	reg.Func("sweep.reps.total", get(func(p Progress) float64 { return float64(p.RepsTotal) }))
	reg.Func("sweep.reps.done", get(func(p Progress) float64 { return float64(p.RepsDone) }))
	reg.Func("sweep.reps.per_sec", get(func(p Progress) float64 { return p.RepsPerSec }))
	reg.Func("sweep.retries", get(func(p Progress) float64 { return float64(p.Retries) }))
	reg.Func("sweep.watchdog.fired", get(func(p Progress) float64 { return float64(p.WatchdogFired) }))
	reg.Func("sweep.truncated", get(func(p Progress) float64 { return float64(p.Truncated) }))
	reg.Func("sweep.messages", get(func(p Progress) float64 { return float64(p.Messages) }))
	reg.Func("sweep.messages.per_sec", get(func(p Progress) float64 { return p.MessagesPerSec }))
	reg.Func("sweep.dropped", get(func(p Progress) float64 { return float64(p.Dropped) }))
	reg.Func("sweep.elapsed_seconds", get(func(p Progress) float64 { return p.Elapsed.Seconds() }))
	reg.Func("sweep.eta_seconds", get(func(p Progress) float64 { return p.ETA.Seconds() }))
	costs := []struct {
		name, help string
		f          func(Progress) float64
	}{
		{"sweep.cost.wall_seconds", "attributed simulation wall time", func(p Progress) float64 { return float64(p.CostWallNS) / 1e9 }},
		{"sweep.cost.cycles", "simulated cycles bought", func(p Progress) float64 { return float64(p.CostCycles) }},
	}
	for _, m := range costs {
		reg.Func(m.name, get(m.f))
		reg.Describe(m.name, obs.KindCounter, m.help)
	}
}
