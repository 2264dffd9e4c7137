package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"banyan/internal/simnet"
)

// TestBuildLedgerReconciles drives a mixed run — fresh points, an
// in-batch alias, a cache-served second batch, and a failed point —
// and checks that the ledger's rows and the counters tell one story,
// and that every row names the seed its point ran at.
func TestBuildLedgerReconciles(t *testing.T) {
	pts := faultPoints(1)
	pts = append(pts, Point{Label: "alias", Cfg: pts[0].Cfg})
	r := &Runner{
		RootSeed: 9, Parallelism: 2,
		Cache:  NewCache(),
		Ledger: NewLedgerCollector(),
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			if cfg.P == faultyP {
				return nil, errTransient
			}
			return simnet.RunEngine(ctx, e, cfg, nil)
		},
	}
	if _, err := r.Run(pts); err == nil {
		t.Fatal("want batch error from the failing point")
	}
	// Second batch: the healthy points come from the cache.
	healthy := []Point{pts[0], pts[2]}
	if _, err := r.Run(healthy); err != nil {
		t.Fatal(err)
	}

	led := r.BuildLedger()
	if !led.Reconciled {
		t.Fatalf("ledger does not reconcile: %s", led.Note)
	}
	if led.Schema != ledgerSchema {
		t.Fatalf("schema %q", led.Schema)
	}
	byLabel := map[string]Point{}
	for _, p := range pts {
		byLabel[p.Label] = p
	}
	byStatus := map[LedgerStatus]int{}
	for _, row := range led.Rows {
		byStatus[row.Status]++
		if want := SeedFor(byLabel[row.Label], r.RootSeed); row.Seed != want {
			t.Fatalf("%s row %q seed %d, want %d", row.Status, row.Label, row.Seed, want)
		}
		switch row.Status {
		case LedgerDone:
			if row.Cost == nil || row.Cost.WallNS <= 0 {
				t.Fatalf("done row %q without cost", row.Label)
			}
		case LedgerFailed:
			if row.Err == "" {
				t.Fatalf("failed row %q without error", row.Label)
			}
		default:
			if row.Cost != nil {
				t.Fatalf("%s row %q carries cost", row.Status, row.Label)
			}
		}
	}
	// Batch 1: 2 fresh done, 1 failed, 1 aliased. Batch 2: 2 cached.
	if byStatus[LedgerDone] != 2 || byStatus[LedgerFailed] != 1 ||
		byStatus[LedgerAliased] != 1 || byStatus[LedgerCached] != 2 {
		t.Fatalf("row mix %v", byStatus)
	}
	if led.Savings.CachedPoints != 2 || led.Savings.AliasedPoints != 1 || led.Savings.RepsAvoided != 3 {
		t.Fatalf("savings wrong: %+v", led.Savings)
	}
	if led.Savings.EstSavedWallNS <= 0 {
		t.Fatalf("est saved wall %d, want > 0", led.Savings.EstSavedWallNS)
	}
	if led.Faults.Retries != 0 || led.Points.Failed != 1 {
		t.Fatalf("fault totals wrong: %+v %+v", led.Faults, led.Points)
	}
	if led.Cost.Parallelism != 2 || led.Cost.BusyNS <= 0 {
		t.Fatalf("cost denominators wrong: %+v", led.Cost)
	}
}

// TestBuildLedgerTopK: the spotlight lists fresh points by wall cost,
// descending, capped at ledgerTopK, and never includes shared rows.
func TestBuildLedgerTopK(t *testing.T) {
	col := NewLedgerCollector()
	r := &Runner{RootSeed: 3, Ledger: col}
	if _, err := r.Run(quickPoints(1)); err != nil {
		t.Fatal(err)
	}
	led := r.BuildLedger()
	if !led.Reconciled {
		t.Fatalf("not reconciled: %s", led.Note)
	}
	if len(led.TopK) != 3 {
		t.Fatalf("topk %d rows, want 3", len(led.TopK))
	}
	for i := 1; i < len(led.TopK); i++ {
		if led.TopK[i].Cost.WallNS > led.TopK[i-1].Cost.WallNS {
			t.Fatalf("topk not sorted by wall: %d after %d",
				led.TopK[i].Cost.WallNS, led.TopK[i-1].Cost.WallNS)
		}
	}
}

// TestBuildLedgerWithoutCollector: a runner that never attached a
// collector still gets counter totals, explicitly marked unreconciled.
func TestBuildLedgerWithoutCollector(t *testing.T) {
	r := &Runner{RootSeed: 3}
	if _, err := r.Run(quickPoints(1)); err != nil {
		t.Fatal(err)
	}
	led := r.BuildLedger()
	if led.Reconciled {
		t.Fatal("no-collector ledger claims reconciliation")
	}
	if led.Note == "" || len(led.Rows) != 0 {
		t.Fatalf("no-collector ledger shape wrong: note %q rows %d", led.Note, len(led.Rows))
	}
	if led.Points.Done != 3 || led.Cost.WallNS <= 0 {
		t.Fatalf("counter totals missing: %+v %+v", led.Points, led.Cost)
	}
}

// TestReconcileDetectsDrift: a doctored row must flip the verdict —
// the reconciliation is exact, not tolerant.
func TestReconcileDetectsDrift(t *testing.T) {
	r := &Runner{RootSeed: 3, Ledger: NewLedgerCollector()}
	if _, err := r.Run(quickPoints(1)); err != nil {
		t.Fatal(err)
	}
	if led := r.BuildLedger(); !led.Reconciled {
		t.Fatalf("clean run must reconcile: %s", led.Note)
	}
	// Tamper: one extra nanosecond on one row.
	r.Ledger.rows[0].Cost.WallNS++
	led := r.BuildLedger()
	if led.Reconciled {
		t.Fatal("1ns discrepancy not detected")
	}
	if !strings.Contains(led.Note, "wall_ns") {
		t.Fatalf("note does not name the discrepancy: %q", led.Note)
	}
}

// TestLedgerVRSection: points carrying VR estimates aggregate into the
// ledger's VR summary.
func TestLedgerVRSection(t *testing.T) {
	col := NewLedgerCollector()
	pr := &PointResult{Point: Point{Label: "vr-pt"}, Cost: &PointCost{WallNS: 10, Reps: 4, ESS: 6.5}}
	col.Observe(pr, LedgerDone)
	row := col.Rows()[0]
	if row.Cost == nil || row.Cost.ESS != 6.5 {
		t.Fatalf("observe dropped cost/ESS: %+v", row)
	}
}

// TestLedgerWriteJSONAndText: both renditions carry the verdict and the
// section content; JSON round-trips.
func TestLedgerWriteJSONAndText(t *testing.T) {
	r := &Runner{RootSeed: 3, Ledger: NewLedgerCollector(), Drift: &DriftMonitor{}}
	if _, err := r.Run(quickPoints(1)); err != nil {
		t.Fatal(err)
	}
	led := r.BuildLedger()

	var jb bytes.Buffer
	if err := led.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back RunLedger
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("ledger JSON does not round-trip: %v", err)
	}
	if back.Schema != ledgerSchema || back.Points.Done != led.Points.Done || !back.Reconciled {
		t.Fatalf("round-trip lost fields: %+v", back.Points)
	}
	if back.Drift == nil {
		t.Fatal("drift totals missing from JSON")
	}

	var tb bytes.Buffer
	if err := led.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	text := tb.String()
	for _, want := range []string{"RECONCILED", "points", "cost", "savings / faults", "drift", "most expensive points"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text rendition missing %q:\n%s", want, text)
		}
	}
}

// TestLedgerCollectorConcurrent: Observe is called from every worker;
// the -race guard.
func TestLedgerCollectorConcurrent(t *testing.T) {
	col := NewLedgerCollector()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				col.Observe(&PointResult{
					Point: Point{Label: "p"},
					Cost:  &PointCost{WallNS: int64(i)},
				}, LedgerDone)
			}
		}(w)
	}
	deadline := time.After(5 * time.Second)
	for w := 0; w < 4; w++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("observers wedged")
		}
	}
	if n := len(col.Rows()); n != 400 {
		t.Fatalf("rows %d, want 400", n)
	}
}
