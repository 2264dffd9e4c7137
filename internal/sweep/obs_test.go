package sweep

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"banyan/internal/obs"
	"banyan/internal/simnet"
)

// TestTerminalAccountingInvariant is the regression test for the
// aliased-point accounting bug: in-batch duplicates used to reach no
// terminal counter at all, so PointsDone+PointsFailed never added up to
// PointsTotal. Every point must settle as exactly one of done, failed,
// or aliased — across fresh runs, cache-served reruns, and failures.
func TestTerminalAccountingInvariant(t *testing.T) {
	pts := quickPoints(2) // 3 distinct points × 2 reps
	batch := append(append([]Point{}, pts...),
		Point{Label: "alias-a", Cfg: pts[0].Cfg, Reps: pts[0].Reps},
		Point{Label: "alias-b", Cfg: pts[1].Cfg, Reps: pts[1].Reps},
	)
	r := &Runner{RootSeed: 7, Cache: NewCache()}
	prs, err := r.Run(batch)
	if err != nil {
		t.Fatal(err)
	}
	snap := r.Counters().Snapshot()
	if !snap.Settled() {
		t.Fatalf("invariant violated after fresh run: done %d + failed %d + aliased %d != total %d",
			snap.PointsDone, snap.PointsFailed, snap.PointsAliased, snap.PointsTotal)
	}
	if snap.PointsDone != 3 || snap.PointsAliased != 2 || snap.PointsFailed != 0 {
		t.Fatalf("terminal split wrong: %+v", snap)
	}
	if snap.RepsTotal != 10 || snap.RepsDone != 6 {
		t.Fatalf("reps: total %d done %d, want 10/6 (aliases never simulate)", snap.RepsTotal, snap.RepsDone)
	}
	// Aliases share results but keep their own labels.
	if prs[3].Point.Label != "alias-a" || prs[3].Result() != prs[0].Result() {
		t.Fatalf("alias resolution broken: label %q", prs[3].Point.Label)
	}

	// Rerun the whole batch warm: first occurrences hit the cache,
	// duplicates alias; the invariant must keep holding cumulatively.
	if _, err := r.Run(batch); err != nil {
		t.Fatal(err)
	}
	snap = r.Counters().Snapshot()
	if !snap.Settled() {
		t.Fatalf("invariant violated after warm rerun: %+v", snap)
	}
	if snap.PointsCached != 3 || snap.PointsAliased != 4 || snap.PointsDone != 6 {
		t.Fatalf("warm rerun split wrong: %+v", snap)
	}
	if snap.RepsDone != 6 {
		t.Fatalf("warm rerun resimulated: RepsDone %d, want 6", snap.RepsDone)
	}
}

// TestInvariantWithFailures: failed and cancelled points also settle, so
// the invariant survives unhealthy batches.
func TestInvariantWithFailures(t *testing.T) {
	pts := quickPoints(2)
	r := &Runner{
		RootSeed: 7,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP {
				return nil, errors.New("injected")
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	if _, err := r.Run(pts); err == nil {
		t.Fatal("want batch error")
	}
	snap := r.Counters().Snapshot()
	if !snap.Settled() {
		t.Fatalf("invariant violated with failures: %+v", snap)
	}
	if snap.PointsFailed != 1 || snap.PointsDone != 2 {
		t.Fatalf("failure split wrong: %+v", snap)
	}

	// Cancellation before any work: every point settles as failed.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r2 := &Runner{RootSeed: 7}
	if _, err := r2.RunCtx(ctx, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	snap = r2.Counters().Snapshot()
	if !snap.Settled() {
		t.Fatalf("invariant violated under cancellation: %+v", snap)
	}
	if snap.PointsFailed != int64(len(pts)) {
		t.Fatalf("cancelled batch: %d failed, want %d", snap.PointsFailed, len(pts))
	}
}

// TestCacheHitRelabels is the regression test for the stale-label bug:
// a cross-batch cache hit used to return the PointResult verbatim, so a
// point swept under a new label in a later Run call came back wearing
// the first batch's label.
func TestCacheHitRelabels(t *testing.T) {
	base := quickPoints(1)[0]
	r := &Runner{RootSeed: 7, Cache: NewCache()}
	first, err := r.Run([]Point{base})
	if err != nil {
		t.Fatal(err)
	}
	renamed := base
	renamed.Label = "renamed"
	second, err := r.Run([]Point{renamed})
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Point.Label != "renamed" {
		t.Fatalf("cache hit kept stale label %q, want %q", second[0].Point.Label, "renamed")
	}
	if second[0].Result() != first[0].Result() {
		t.Fatal("relabelled cache hit was re-simulated")
	}
	// The cached entry itself must not have been mutated: the original
	// label still comes back for the original point.
	third, err := r.Run([]Point{base})
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Point.Label != base.Label {
		t.Fatalf("cache entry corrupted: label %q, want %q", third[0].Point.Label, base.Label)
	}
}

// TestCountersBusyElapsed is the regression test for the idle-time bug:
// a shared Runner's start time was set once and never reset, so Elapsed
// (and the throughput derived from it) spanned the idle gaps between
// batches. Elapsed must cover only intervals with a batch in flight.
func TestCountersBusyElapsed(t *testing.T) {
	clk := time.Unix(50_000, 0)
	now := func() time.Time { return clk }
	var c Counters
	c.now = now
	c.msgMeter.Now = now
	c.repMeter.Now = now

	c.begin(1, 1)
	clk = clk.Add(2 * time.Second)
	c.end()
	clk = clk.Add(time.Hour) // idle gap — must not count
	if e := c.Snapshot().Elapsed; e != 2*time.Second {
		t.Fatalf("idle time leaked into Elapsed: %v, want 2s", e)
	}

	// Overlapping batches count wall-clock once, not per batch.
	c.begin(1, 1)
	clk = clk.Add(time.Second)
	c.begin(1, 1)
	clk = clk.Add(time.Second)
	c.end()
	if e := c.Snapshot().Elapsed; e != 4*time.Second {
		t.Fatalf("mid-batch Elapsed %v, want 4s", e)
	}
	c.end()
	clk = clk.Add(time.Hour)
	if e := c.Snapshot().Elapsed; e != 4*time.Second {
		t.Fatalf("final Elapsed %v, want 4s", e)
	}
}

// TestProgressRatesAndETA: the windowed rates and the remaining-work ETA
// under a synthetic clock.
func TestProgressRatesAndETA(t *testing.T) {
	clk := time.Unix(60_000, 0)
	now := func() time.Time { return clk }
	var c Counters
	c.now = now
	c.msgMeter.Now = now
	c.repMeter.Now = now

	c.begin(10, 10)
	for i := 0; i < 4; i++ {
		c.repDone(&simnet.Result{Messages: 100})
		clk = clk.Add(time.Second)
	}
	p := c.Snapshot()
	if p.RepsPerSec != 1 || p.MessagesPerSec != 100 {
		t.Fatalf("windowed rates: %g reps/s, %g msg/s, want 1 and 100", p.RepsPerSec, p.MessagesPerSec)
	}
	if p.ETA != 6*time.Second {
		t.Fatalf("ETA %v, want 6s (6 remaining reps at 1/s)", p.ETA)
	}
	// Settle the rest without simulating (as cache hits would): ETA
	// drops to zero even though RepsDone never reaches RepsTotal.
	for i := 0; i < 6; i++ {
		c.repSettled()
	}
	if p := c.Snapshot(); p.ETA != 0 {
		t.Fatalf("ETA %v after all reps settled, want 0", p.ETA)
	}
}

// TestRunnerEmitsEvents drives the full event lifecycle: started/done on
// fresh points, aliased on duplicates, journaled on checkpointing,
// cached and resumed on warm reruns.
func TestRunnerEmitsEvents(t *testing.T) {
	pts := quickPoints(1) // 3 points
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRingSink(64)
	r := &Runner{RootSeed: 7, Cache: NewCache(), Journal: j, Events: ring}
	batch := append(append([]Point{}, pts...), Point{Label: "alias", Cfg: pts[0].Cfg})
	if _, err := r.Run(batch); err != nil {
		t.Fatal(err)
	}
	kinds := func() map[string]int {
		m := map[string]int{}
		for _, ev := range ring.Events() {
			m[ev.Event]++
		}
		return m
	}
	k := kinds()
	if k[obs.EventPointStarted] != 3 || k[obs.EventPointDone] != 3 ||
		k[obs.EventPointJournaled] != 3 || k[obs.EventPointAliased] != 1 {
		t.Fatalf("cold-run event mix: %v", k)
	}
	for _, ev := range ring.Events() {
		if ev.Event == obs.EventPointDone {
			if ev.Label == "" || ev.Key == "" || ev.Seed == 0 || ev.Engine == "" || ev.Messages == 0 {
				t.Fatalf("done event missing identity fields: %+v", ev)
			}
		}
	}

	// Warm rerun on the same runner: cache hits.
	if _, err := r.Run(pts); err != nil {
		t.Fatal(err)
	}
	if k := kinds(); k[obs.EventPointCached] != 3 {
		t.Fatalf("warm-run event mix: %v", k)
	}
	j.Close()

	// New runner, reopened journal: resumed events.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	ring2 := obs.NewRingSink(64)
	r2 := &Runner{RootSeed: 7, Journal: j2, Events: ring2}
	if _, err := r2.Run(pts); err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for _, ev := range ring2.Events() {
		if ev.Event == obs.EventPointResumed {
			resumed++
		}
	}
	if resumed != 3 {
		t.Fatalf("resume run: %d resumed events, want 3", resumed)
	}
}

// TestRetryAndFailureEvents: retried and failed kinds carry the attempt
// number and the error.
func TestRetryAndFailureEvents(t *testing.T) {
	pts := quickPoints(1)
	ring := obs.NewRingSink(64)
	boom := errors.New("persistent fault")
	r := &Runner{
		RootSeed:     7,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		Events:       ring,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP {
				return nil, boom
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	if _, err := r.Run(pts); !errors.Is(err, boom) {
		t.Fatalf("want the injected fault, got %v", err)
	}
	retried, failed := 0, 0
	for _, ev := range ring.Events() {
		switch ev.Event {
		case obs.EventPointRetried:
			retried++
			if ev.Attempt != retried || ev.Err == "" {
				t.Fatalf("retry event malformed: %+v", ev)
			}
		case obs.EventPointFailed:
			failed++
			if ev.Err == "" {
				t.Fatalf("failed event missing error: %+v", ev)
			}
		}
	}
	if retried != 2 || failed != 1 {
		t.Fatalf("retried %d failed %d, want 2 and 1", retried, failed)
	}
}

// TestRunnerProbeThreading: a Runner-level probe reaches the engines and
// never perturbs results (the probe is excluded from config hashing).
func TestRunnerProbeThreading(t *testing.T) {
	pts := quickPoints(1)
	clean, err := (&Runner{RootSeed: 7}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	probe := obs.NewSimProbe()
	probed, err := (&Runner{RootSeed: 7, Probe: probe}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i].Key != probed[i].Key {
			t.Fatalf("probe changed the config key of point %d", i)
		}
		if clean[i].Result().MeanTotalWait() != probed[i].Result().MeanTotalWait() {
			t.Fatalf("probe changed the result of point %d", i)
		}
	}
	s := probe.Snapshot()
	if s.Runs != int64(len(pts)) || s.Messages == 0 {
		t.Fatalf("probe missed the sweep's runs: %+v", s)
	}
}
