package sweep

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"banyan/internal/obs"
	"banyan/internal/simnet"
)

var errTransient = errors.New("transient fault")

// TestRunCyclesAccounting pins what a replication's cycle bill is: the
// truncation point when it stopped early, warmup+measured when it ran
// to completion, nothing when it produced nothing.
func TestRunCyclesAccounting(t *testing.T) {
	cfg := &simnet.Config{Warmup: 100, Cycles: 800}
	if got := runCycles(cfg, nil); got != 0 {
		t.Fatalf("nil result billed %d cycles", got)
	}
	if got := runCycles(cfg, &simnet.Result{}); got != 900 {
		t.Fatalf("complete run billed %d cycles, want 900", got)
	}
	if got := runCycles(cfg, &simnet.Result{Truncated: true, TruncatedAt: 123}); got != 123 {
		t.Fatalf("truncated run billed %d cycles, want 123", got)
	}
}

// TestCostAttributionExact is the wall-exactness contract: every fresh
// point carries a cost, its cycle bill is exactly what it simulated,
// and the per-point costs sum to the counters' totals to the
// nanosecond — the same equality BuildLedger's reconcile enforces.
func TestCostAttributionExact(t *testing.T) {
	pts := quickPoints(2) // 3 points × 2 reps of 100+800 cycles
	r := &Runner{Parallelism: 2, RootSeed: 5}
	prs, err := r.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	var wall, cyc int64
	for _, pr := range prs {
		if pr.Cost == nil {
			t.Fatalf("fresh point %q has no cost", pr.Point.Label)
		}
		if pr.Cost.WallNS <= 0 {
			t.Fatalf("point %q wall %d, want > 0", pr.Point.Label, pr.Cost.WallNS)
		}
		if pr.Cost.Cycles != 2*900 {
			t.Fatalf("point %q billed %d cycles, want 1800", pr.Point.Label, pr.Cost.Cycles)
		}
		if pr.Cost.Reps != 2 {
			t.Fatalf("point %q reps %d, want 2", pr.Point.Label, pr.Cost.Reps)
		}
		wall += pr.Cost.WallNS
		cyc += pr.Cost.Cycles
	}
	snap := r.Counters().Snapshot()
	if wall != snap.CostWallNS || cyc != snap.CostCycles {
		t.Fatalf("per-point sums (wall %d cyc %d) != counters (%d %d)",
			wall, cyc, snap.CostWallNS, snap.CostCycles)
	}
}

// TestCostRetriesAttributed: a point pays for every attempt it took,
// including the failed ones — its cost is what it actually spent.
func TestCostRetriesAttributed(t *testing.T) {
	pts := faultPoints(1)
	var failures atomic.Int64
	r := &Runner{
		RootSeed: 9, Parallelism: 1, MaxRetries: 3, RetryBackoff: time.Millisecond,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP && failures.Add(1) <= 2 {
				return nil, errTransient
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	prs, err := r.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, pr := range prs {
		if pr.Cost == nil {
			t.Fatalf("point %q has no cost", pr.Point.Label)
		}
		// Failed attempts bill no cycles (no result), so the cycle bill
		// stays exactly one completed replication per point.
		if pr.Cost.Cycles != 900 {
			t.Fatalf("point %q billed %d cycles, want 900", pr.Point.Label, pr.Cost.Cycles)
		}
		sum += pr.Cost.WallNS
	}
	if snap := r.Counters().Snapshot(); sum != snap.CostWallNS {
		t.Fatalf("wall sum %d != counters %d with retries in play", sum, snap.CostWallNS)
	}
}

// TestCostNilOnSharedPoints: cache hits, in-batch aliases and resumed
// points carry nil cost — their price was paid (and attributed) where
// the simulation actually happened, never twice.
func TestCostNilOnSharedPoints(t *testing.T) {
	pts := quickPoints(1)

	// Cache: the second run pays nothing and attributes nothing.
	r := &Runner{RootSeed: 7, Cache: NewCache()}
	if _, err := r.Run(pts); err != nil {
		t.Fatal(err)
	}
	paid := r.Counters().Snapshot()
	again, err := r.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range again {
		if pr.Cost != nil {
			t.Fatalf("cached point %q carries cost %+v", pr.Point.Label, pr.Cost)
		}
	}
	if snap := r.Counters().Snapshot(); snap.CostWallNS != paid.CostWallNS || snap.CostCycles != paid.CostCycles {
		t.Fatalf("cache hits changed attributed totals: %+v -> %+v", paid, snap)
	}

	// In-batch alias: only the simulated copy is billed.
	dup := []Point{pts[0], {Label: "alias", Cfg: pts[0].Cfg}}
	r2 := &Runner{RootSeed: 7}
	prs, err := r2.Run(dup)
	if err != nil {
		t.Fatal(err)
	}
	if prs[0].Cost == nil || prs[1].Cost != nil {
		t.Fatalf("alias billing wrong: original %+v alias %+v", prs[0].Cost, prs[1].Cost)
	}

	// Resume: journaled points are served from disk with nil cost.
	path := filepath.Join(t.TempDir(), "journal")
	j, err := SetupJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	r3 := &Runner{RootSeed: 7, Journal: j}
	if _, err := r3.Run(pts); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := SetupJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r4 := &Runner{RootSeed: 7, Journal: j2}
	resumed, err := r4.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range resumed {
		if pr.Cost != nil {
			t.Fatalf("resumed point %q carries cost %+v", pr.Point.Label, pr.Cost)
		}
	}
	if snap := r4.Counters().Snapshot(); snap.CostWallNS != 0 || snap.CostCycles != 0 {
		t.Fatalf("resume attributed cost: %+v", snap)
	}
}

// TestLedgerTSDBExpositionBitIdentity is the PR's result-neutrality
// gate: a sweep with the full observability stack enabled — ledger
// collector, registry exposition scraped as OpenMetrics mid-run, TSDB
// sampling on a tight cadence, journal — produces results, keys, seeds
// and journal bytes identical to a bare run.
func TestLedgerTSDBExpositionBitIdentity(t *testing.T) {
	pts := quickPoints(2)
	dir := t.TempDir()

	runOnce := func(journalPath string, instrumented bool) []*PointResult {
		t.Helper()
		j, err := SetupJournal(journalPath, false)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		r := &Runner{Parallelism: 1, RootSeed: 0xbeef, Journal: j}
		var tsdb *obs.TSDB
		if instrumented {
			r.Ledger = NewLedgerCollector()
			reg := obs.NewRegistry()
			r.Counters().Register(reg)
			obs.RegisterRuntimeMetrics(reg)
			tsdb = obs.NewTSDB(reg, 64)
			tsdb.Start(time.Millisecond)
			defer tsdb.Stop()
			stop := make(chan struct{})
			defer close(stop)
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
						var sink bytes.Buffer
						if err := obs.WriteOpenMetrics(&sink, reg, nil); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()
		}
		prs, err := r.Run(pts)
		if err != nil {
			t.Fatal(err)
		}
		if instrumented {
			led := r.BuildLedger()
			if !led.Reconciled {
				t.Fatalf("instrumented run does not reconcile: %s", led.Note)
			}
		}
		return prs
	}

	bare := runOnce(filepath.Join(dir, "bare.journal"), false)
	instr := runOnce(filepath.Join(dir, "instr.journal"), true)

	if !reflect.DeepEqual(resultsOf(bare), resultsOf(instr)) {
		t.Fatal("observability stack changed simulation results")
	}
	for i := range bare {
		if bare[i].Key != instr[i].Key || bare[i].Seed != instr[i].Seed {
			t.Fatalf("point %d key/seed drifted: %x/%x vs %x/%x",
				i, bare[i].Key, bare[i].Seed, instr[i].Key, instr[i].Seed)
		}
	}
	jb, err := os.ReadFile(filepath.Join(dir, "bare.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ji, err := os.ReadFile(filepath.Join(dir, "instr.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jb, ji) {
		t.Fatal("journal bytes differ with observability enabled — cost leaked into the journal")
	}
}
