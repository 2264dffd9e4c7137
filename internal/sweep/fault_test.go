package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"banyan/internal/simnet"
)

// faultPoints is a small batch whose middle point (P = 0.4) the tests
// single out for fault injection.
func faultPoints(reps int) []Point {
	return quickPoints(reps)
}

const faultyP = 0.4 // quickPoints' middle point

// TestPanicIsolation: a replication that panics fails only its own
// point; the rest of the batch completes with results identical to a
// fault-free run.
func TestPanicIsolation(t *testing.T) {
	pts := faultPoints(1)
	clean, err := (&Runner{RootSeed: 9}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}

	r := &Runner{RootSeed: 9, runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
		if cfg.P == faultyP {
			panic("injected fault")
		}
		return simnet.RunEngine(ctx, e, cfg, nil)
	}}
	prs, err := r.Run(pts)
	if err == nil {
		t.Fatal("want batch error from the panicking point")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "injected fault" || len(pe.Stack) == 0 {
		t.Fatalf("want *PanicError with stack, got %v", err)
	}
	if len(prs) != len(pts) {
		t.Fatalf("results not fully populated: %d of %d", len(prs), len(pts))
	}
	for i, pr := range prs {
		if pts[i].Cfg.P == faultyP {
			if pr.Err == nil || pr.Agg != nil {
				t.Fatalf("faulty point %q: want Err and nil Agg, got err=%v agg=%v", pr.Point.Label, pr.Err, pr.Agg)
			}
			continue
		}
		if pr.Err != nil {
			t.Fatalf("healthy point %q failed: %v", pr.Point.Label, pr.Err)
		}
		if !reflect.DeepEqual(pr.Runs, clean[i].Runs) {
			t.Fatalf("healthy point %q diverged from fault-free run", pr.Point.Label)
		}
	}
	if snap := r.Counters().Snapshot(); snap.PointsFailed != 1 {
		t.Fatalf("want 1 failed point in counters, got %+v", snap)
	}
}

// TestRetryRecovers: transient failures are retried with backoff and the
// recovered result is identical to a fault-free run — the retry path
// must not perturb determinism.
func TestRetryRecovers(t *testing.T) {
	pts := faultPoints(1)
	clean, err := (&Runner{RootSeed: 9}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}

	var failures atomic.Int64
	boom := errors.New("transient fault")
	r := &Runner{
		RootSeed:     9,
		MaxRetries:   3,
		RetryBackoff: time.Millisecond,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP && failures.Add(1) <= 2 {
				return nil, boom
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	prs, err := r.Run(pts)
	if err != nil {
		t.Fatalf("retries should have recovered the batch: %v", err)
	}
	if !reflect.DeepEqual(resultsOf(prs), resultsOf(clean)) {
		t.Fatal("recovered results differ from fault-free run")
	}
	if snap := r.Counters().Snapshot(); snap.Retries != 2 || snap.PointsFailed != 0 {
		t.Fatalf("want 2 retries and 0 failed points, got %+v", snap)
	}
}

// TestRetriesExhausted: a persistent failure stops after MaxRetries
// extra attempts and surfaces the underlying error on its point.
func TestRetriesExhausted(t *testing.T) {
	pts := faultPoints(1)
	var attempts atomic.Int64
	boom := errors.New("persistent fault")
	r := &Runner{
		RootSeed:     9,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP {
				attempts.Add(1)
				return nil, boom
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	prs, err := r.Run(pts)
	if !errors.Is(err, boom) {
		t.Fatalf("want the persistent fault in the batch error, got %v", err)
	}
	if got := attempts.Load(); got != 3 { // 1 initial + 2 retries
		t.Fatalf("want 3 attempts, got %d", got)
	}
	for _, pr := range prs {
		if pr.Point.Cfg.P == faultyP && !errors.Is(pr.Err, boom) {
			t.Fatalf("faulty point error = %v", pr.Err)
		}
	}
}

// TestCancellationNoGoroutineLeak: cancelling mid-batch returns promptly
// with every unfinished point marked, and leaves no worker goroutines
// behind. CI runs this under -race.
func TestCancellationNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	pts := faultPoints(4) // 3 points × 4 reps = 12 jobs
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	r := &Runner{
		RootSeed:    9,
		Parallelism: 2,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			res, err := simnet.RunEngine(ctx, e, cfg, nil)
			if done.Add(1) == 4 {
				cancel()
			}
			return res, err
		},
	}
	prs, err := r.RunCtx(ctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in batch error, got %v", err)
	}
	if len(prs) != len(pts) {
		t.Fatalf("results not fully populated: %d of %d", len(prs), len(pts))
	}
	cancelled := 0
	for _, pr := range prs {
		if pr == nil {
			t.Fatal("nil PointResult after cancellation")
		}
		if pr.Err != nil {
			if !errors.Is(pr.Err, context.Canceled) {
				t.Fatalf("point %q: want Canceled, got %v", pr.Point.Label, pr.Err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("cancellation mid-batch must leave at least one point unfinished")
	}

	// Workers must all have exited and every arena checked back in; the
	// shared helper also covers each chaos scenario.
	checkNoLeaks(t, baseline)
}

// TestMixedFaultBatch is the robustness acceptance scenario: one healthy
// point, one panicking point, one unstable (saturating) point — the
// batch completes with per-point errors and truncation flags instead of
// collapsing.
func TestMixedFaultBatch(t *testing.T) {
	const panickyP = 0.45
	pts := []Point{
		{Label: "healthy", Cfg: simnet.Config{
			K: 2, Stages: 2, P: 0.3, Cycles: 2000, Warmup: 50,
		}},
		{Label: "panicky", Cfg: simnet.Config{
			K: 2, Stages: 2, P: panickyP, Cycles: 2000, Warmup: 50,
		}},
		{Label: "unstable", Cfg: simnet.Config{
			K: 2, Stages: 2, P: 0.7, Bulk: 2, Cycles: 2000, Warmup: 50,
			AllowUnstable: true, MaxInFlight: 300,
		}},
	}
	r := &Runner{
		RootSeed:     11,
		MaxRetries:   1,
		RetryBackoff: time.Millisecond,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == panickyP {
				panic("injected fault")
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	prs, err := r.Run(pts)
	if err == nil {
		t.Fatal("want batch error naming the panicking point")
	}
	byLabel := map[string]*PointResult{}
	for _, pr := range prs {
		byLabel[pr.Point.Label] = pr
	}

	if pr := byLabel["healthy"]; pr.Err != nil || pr.Agg == nil || pr.Truncated() {
		t.Fatalf("healthy point: err=%v agg=%v truncated=%v", pr.Err, pr.Agg, pr.Truncated())
	}
	var pe *PanicError
	if pr := byLabel["panicky"]; !errors.As(pr.Err, &pe) {
		t.Fatalf("panicky point: want *PanicError, got %v", pr.Err)
	}
	pr := byLabel["unstable"]
	if pr.Err != nil {
		t.Fatalf("unstable point must complete flagged, not fail: %v", pr.Err)
	}
	if !pr.Truncated() || pr.Agg == nil {
		t.Fatalf("unstable point: truncated=%v agg=%v", pr.Truncated(), pr.Agg)
	}
	res := pr.Result()
	if !res.Unstable || res.TruncatedAt <= 0 {
		t.Fatalf("unstable point result flags: %+v", res)
	}
}
