package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"banyan/internal/simnet"
)

// TestBackoffJitterDeterministic: the retry delay is a pure function of
// (seed, rep, attempt) — reproducible across runs — stays inside the
// ±25% jitter band around the capped exponential, and decorrelates
// replications from each other.
func TestBackoffJitterDeterministic(t *testing.T) {
	r := &Runner{RetryBackoff: 100 * time.Millisecond}
	for attempt := 0; attempt < 8; attempt++ {
		shift := attempt
		if shift > 5 {
			shift = 5
		}
		base := (100 * time.Millisecond) << shift
		for rep := 0; rep < 4; rep++ {
			d := r.backoff(9, rep, attempt)
			if d != r.backoff(9, rep, attempt) {
				t.Fatalf("backoff(9,%d,%d) not deterministic", rep, attempt)
			}
			lo := time.Duration(float64(base) * 0.75)
			hi := time.Duration(float64(base) * 1.25)
			if d < lo || d >= hi {
				t.Fatalf("backoff(9,%d,%d) = %v outside [%v, %v)", rep, attempt, d, lo, hi)
			}
		}
	}
	if r.backoff(9, 0, 0) == r.backoff(9, 1, 0) && r.backoff(9, 0, 1) == r.backoff(9, 1, 1) {
		t.Fatal("jitter identical across replications — not decorrelated")
	}
	if r.backoff(9, 0, 0) == r.backoff(10, 0, 0) && r.backoff(9, 1, 1) == r.backoff(10, 1, 1) {
		t.Fatal("jitter identical across seeds — not decorrelated")
	}
}

// TestRetryBackoffCancelPrompt: cancellation during a retry backoff
// sleep returns promptly with the try's own error instead of waiting
// out the delay or burning the remaining attempts — the regression test
// for the uninterruptible-backoff bug.
func TestRetryBackoffCancelPrompt(t *testing.T) {
	pts := faultPoints(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("persistent fault")
	var attempts atomic.Int64
	r := &Runner{
		RootSeed:     9,
		Parallelism:  1,
		MaxRetries:   10,
		RetryBackoff: time.Minute, // without the ctx-aware sleep this test hangs
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP {
				if attempts.Add(1) == 1 {
					// Cancel while the runner is about to back off.
					go func() {
						time.Sleep(20 * time.Millisecond)
						cancel()
					}()
				}
				return nil, boom
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	start := time.Now()
	_, err := r.RunCtx(ctx, pts)
	if err == nil {
		t.Fatal("want a batch error after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation during backoff took %v — sleep not context-aware", elapsed)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("cancelled backoff must not retry: %d attempts", got)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("the failing try's own error must surface, got %v", err)
	}
}

// TestWatchdogConvertsStall: a replication that hangs is cancelled at
// the watchdog budget, converted to a retryable *StallError, and the
// retry recovers results identical to an unstalled run.
func TestWatchdogConvertsStall(t *testing.T) {
	pts := faultPoints(1)
	clean, err := (&Runner{RootSeed: 9}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	var stalls atomic.Int64
	r := &Runner{
		RootSeed:     9,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
		Watchdog:     &Watchdog{Initial: 150 * time.Millisecond, Grace: 150 * time.Millisecond, Factor: 32},
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP && stalls.Add(1) == 1 {
				<-ctx.Done() // hang until the watchdog cancels the attempt
				return nil, ctx.Err()
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	prs, err := r.Run(pts)
	if err != nil {
		t.Fatalf("watchdog retry should have recovered the batch: %v", err)
	}
	if !reflect.DeepEqual(resultsOf(prs), resultsOf(clean)) {
		t.Fatal("recovered results differ from the unstalled run")
	}
	snap := r.Counters().Snapshot()
	if snap.WatchdogFired < 1 {
		t.Fatalf("want at least one watchdog firing in counters, got %+v", snap)
	}
}

// TestWatchdogStallExhausts: a persistent hang fails its point with a
// typed *StallError once retries run out — never a silent batch hang.
func TestWatchdogStallExhausts(t *testing.T) {
	pts := faultPoints(1)
	r := &Runner{
		RootSeed:     9,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
		Watchdog:     &Watchdog{Initial: 100 * time.Millisecond, Grace: 100 * time.Millisecond, Factor: 16},
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	prs, err := r.Run(pts)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("want *StallError in the batch error, got %v", err)
	}
	if se.Budget <= 0 || se.Elapsed < se.Budget {
		t.Fatalf("stall error fields: elapsed=%v budget=%v", se.Elapsed, se.Budget)
	}
	for _, pr := range prs {
		if pr.Point.Cfg.P != faultyP {
			continue
		}
		if !errors.As(pr.Err, &se) {
			t.Fatalf("stalled point error = %v, want *StallError", pr.Err)
		}
		hasNote := false
		for _, note := range pr.Recovery {
			if note == "watchdog" {
				hasNote = true
			}
		}
		if !hasNote {
			t.Fatalf("stalled point missing the watchdog recovery note: %v", pr.Recovery)
		}
	}
}

// TestWatchdogBudgetTracksThroughput: the budget is Initial before any
// signal and Grace + Factor×recent once replications have completed.
func TestWatchdogBudgetTracksThroughput(t *testing.T) {
	w := &Watchdog{Initial: 2 * time.Second, Grace: 100 * time.Millisecond, Factor: 8}
	if got := w.budget(0); got != 2*time.Second {
		t.Fatalf("budget before signal = %v, want Initial", got)
	}
	if got := w.budget(50 * time.Millisecond); got != 100*time.Millisecond+8*50*time.Millisecond {
		t.Fatalf("budget with signal = %v", got)
	}
	var disarmed *Watchdog
	if got := disarmed.budget(time.Hour); got != 0 {
		t.Fatalf("nil watchdog budget = %v, want 0", got)
	}

	r := &Runner{}
	r.noteRepWall(100 * time.Millisecond)
	if got := time.Duration(r.repWall.Load()); got != 100*time.Millisecond {
		t.Fatalf("first sample = %v", got)
	}
	r.noteRepWall(200 * time.Millisecond)
	if got := time.Duration(r.repWall.Load()); got != 125*time.Millisecond {
		t.Fatalf("EWMA after 100ms,200ms = %v, want 125ms", got)
	}
}

// TestRetryStartsWithFreshDriftHists: a retried replication must not
// pool the waits its failed attempt recorded. The hook records one wait
// per drift histogram kind and fails the first attempt; the retry must
// start with empty stage and switch histograms.
func TestRetryStartsWithFreshDriftHists(t *testing.T) {
	var attempts atomic.Int64
	r := &Runner{
		RootSeed:     9,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
		Drift:        &DriftMonitor{},
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if attempts.Add(1) == 1 {
				cfg.WaitHists[0].Add(3)
				cfg.SwitchWaitHists[0][0].Add(3)
				return nil, errors.New("transient fault")
			}
			var stage, sw int64
			for s := range cfg.WaitHists {
				stage += cfg.WaitHists[s].N()
				for _, h := range cfg.SwitchWaitHists[s] {
					sw += h.N()
				}
			}
			if stage > 0 {
				return nil, fmt.Errorf("retry starts with %d stale stage waits", stage)
			}
			if sw > 0 {
				return nil, fmt.Errorf("retry starts with %d stale switch waits", sw)
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	pts := []Point{{Label: "graph/omega", Engine: Graph,
		Cfg: simnet.Config{K: 2, Stages: 2, P: 0.3, Cycles: 300, Warmup: 30}}}
	if _, err := r.Run(pts); err != nil {
		t.Fatal(err)
	}
	if n := attempts.Load(); n != 2 {
		t.Fatalf("%d attempts, want one failure and one retry", n)
	}
}
