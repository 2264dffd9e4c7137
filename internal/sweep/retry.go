package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"banyan/internal/obs"
	"banyan/internal/simnet"
)

// PanicError wraps a panic recovered from a simulation worker, so one
// faulty point surfaces as that point's error instead of tearing down
// the whole batch.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error, so callers can
// errors.Is/As through a recovered panic — e.g. to recognise an
// injected faultinject.Error without string matching.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// defaultRetryBackoff is the base delay before the first retry when
// Runner.RetryBackoff is unset.
const defaultRetryBackoff = 50 * time.Millisecond

// backoff returns the delay before retry attempt (attempt 0 = first
// retry): base·2^attempt capped at 32×base, with deterministic ±25%
// jitter derived from the point seed, replication and attempt. The
// jitter decorrelates retry wake-ups across workers hammering a shared
// resource, and deriving it from the replication identity instead of a
// global RNG keeps runs reproducible: the same failure schedule sleeps
// the same delays.
func (r *Runner) backoff(seed uint64, rep, attempt int) time.Duration {
	base := r.RetryBackoff
	if base <= 0 {
		base = defaultRetryBackoff
	}
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	d := base << shift
	u := simnet.SplitSeed(simnet.SplitSeed(seed, uint64(int64(rep))), uint64(int64(attempt)))
	frac := float64(u>>11) / (1 << 53) // uniform [0,1)
	return time.Duration(float64(d) * (0.75 + 0.5*frac))
}

// sleepCtx waits for d or until ctx is cancelled, whichever comes
// first, and reports the cancellation so retry loops abort promptly
// instead of burning the remaining attempts against a dead context.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// safeRun executes one replication with panic isolation and the
// per-replication wall-clock budget. A recovered panic is converted to a
// *PanicError; a PointBudget overrun surfaces as the engine's partial
// Truncated result plus context.DeadlineExceeded.
func (r *Runner) safeRun(ctx context.Context, e Engine, cfg *simnet.Config) (res *simnet.Result, err error) {
	if r.PointBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.PointBudget)
		defer cancel()
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if r.runRep != nil {
		return r.runRep(ctx, e, cfg)
	}
	return simnet.RunEngine(ctx, e, cfg, nil)
}

// attempt runs one replication to a final outcome: success, a truncated
// partial result, or a terminal error after MaxRetries jittered-backoff
// retries. Each try runs under the watchdog, so a hang converts into a
// retryable *StallError instead of blocking forever. Cancellation and
// deadline overruns are never retried — the former is the caller
// stopping the batch, the latter would just burn the budget again.
func (r *Runner) attempt(ctx context.Context, pr *PointResult, rep int, cfg *simnet.Config) (*simnet.Result, error) {
	e := pr.Point.Engine
	for a := 0; ; a++ {
		wctx, finish := r.withWatchdog(ctx, pr, rep)
		start := time.Now()
		res, err := r.safeRun(wctx, e, cfg)
		err = finish(err)
		wall := time.Since(start)
		// Every try is paid for, so every try is attributed — retries
		// included; a point's cost is what it actually spent, not what
		// its final attempt spent.
		r.addCost(pr, PointCost{WallNS: int64(wall), Cycles: runCycles(cfg, res)})
		if err == nil {
			r.noteRepWall(wall)
			return res, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			ctx.Err() != nil || a >= r.MaxRetries {
			return res, err
		}
		r.ctr.retried()
		r.noteRecovery(pr, "retry")
		ev := pointEvent(obs.EventPointRetried, pr)
		ev.Rep = rep
		ev.Attempt = a + 1
		ev.Err = err.Error()
		r.emit(ev)
		// The retry reuses cfg, so it must not pool the partial waits
		// of the failed attempt; the caller reads the histograms back
		// from cfg afterwards.
		if cfg.WaitHists != nil || cfg.SwitchWaitHists != nil {
			newDriftHists(cfg, cfg.SwitchWaitHists != nil)
		}
		if sleepCtx(ctx, r.backoff(pr.Seed, rep, a)) != nil {
			// Cancelled mid-backoff: surface the try's own error — it
			// names the actual failure; the caller's context check covers
			// the shutdown.
			return res, err
		}
	}
}
