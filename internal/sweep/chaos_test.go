package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"banyan/internal/faultinject"
	"banyan/internal/simnet"
)

// checkNoLeaks asserts the scenario released every resource it took:
// worker goroutines back to the pre-run count (polled briefly — exits
// race the runner's return) and every simulation arena checked back
// in. Shared by the cancellation test and every chaos scenario.
func checkNoLeaks(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d before, %d after", baseline, n)
	}
	if live := simnet.ArenaLive(); live != 0 {
		t.Fatalf("arena leak: %d arenas still checked out", live)
	}
}

// chaosWatchdog is the aggressive watchdog every chaos scenario runs
// under: tight enough that an injected stall converts quickly, padded
// enough that a legitimate replication never trips it even under the
// race detector.
func chaosWatchdog() *Watchdog {
	return &Watchdog{Initial: 250 * time.Millisecond, Grace: 250 * time.Millisecond, Factor: 32}
}

// assertChaosTyped fails the test unless a chaos run's error is typed:
// an injected fault (directly, via a recovered panic, or via the
// journal's append wrapper) or a watchdog stall conversion. Anything
// else is silent-corruption territory.
func assertChaosTyped(t *testing.T, err error) {
	t.Helper()
	var se *StallError
	if !errors.Is(err, faultinject.ErrInjected) && !errors.As(err, &se) {
		t.Fatalf("chaos run failed with an untyped error: %v", err)
	}
}

// runChaosScenario is the battery's single-schedule contract check: the
// faulted run either completes bit-identical to the fault-free golden
// or fails typed — and in both cases a fault-free rerun against the
// surviving journal converges to the golden results, the repaired
// journal compacts cleanly, and nothing leaks.
func runChaosScenario(t *testing.T, sched *faultinject.Schedule, pts []Point, golden []byte, par int, expectFire bool) {
	t.Helper()
	baseline := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(sched)
	r := &Runner{
		RootSeed: 7, Parallelism: par,
		MaxRetries: 3, RetryBackoff: time.Millisecond,
		Watchdog: chaosWatchdog(),
		Journal:  j, Fault: inj,
	}
	prs, err := r.RunCtx(context.Background(), pts)
	j.Close()
	if err == nil {
		if !bytes.Equal(marshalRuns(t, prs), golden) {
			t.Fatal("chaos run completed but diverged from the fault-free golden")
		}
	} else {
		assertChaosTyped(t, err)
	}
	if expectFire && inj.Injected() == 0 {
		t.Fatal("scenario expected at least one injected fault, none fired")
	}

	// Recovery: reopen (open-time recovery drops any torn or corrupt
	// tail the faults left) and rerun fault-free. The journaled points
	// restore, the damaged ones resimulate, and the merged batch must be
	// bit-identical to the golden run.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen after chaos run: %v", err)
	}
	r2 := &Runner{RootSeed: 7, Parallelism: par, Journal: j2}
	prs2, err := r2.Run(pts)
	if err != nil {
		t.Fatalf("fault-free resume: %v", err)
	}
	// Byte-identical in the journal's own JSON encoding: the acceptance
	// bar for crash-safe resume.
	if !bytes.Equal(marshalRuns(t, prs2), golden) {
		t.Fatal("resumed results diverged from the fault-free golden")
	}
	if err := j2.Checkpoint(); err != nil {
		t.Fatalf("compacting the recovered journal: %v", err)
	}
	j2.Close()
	if reopened, err := OpenJournal(path); err != nil || reopened.Loaded() != len(pts) {
		t.Fatalf("compacted journal reload: loaded=%d err=%v", reopened.Loaded(), err)
	} else {
		reopened.Close()
	}
	checkNoLeaks(t, baseline)
}

// TestChaosBattery sweeps every fault class across parallelism: each run must complete bit-identical to the fault-free golden
// or fail typed and resume byte-identically — no hangs, no leaks, no
// silent corruption.
func TestChaosBattery(t *testing.T) {
	pts := quickPoints(2)
	clean, err := (&Runner{RootSeed: 7}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	golden := marshalRuns(t, clean)

	for _, class := range faultinject.Classes {
		for _, par := range []int{1, 4} {
			class, par := class, par
			t.Run(fmt.Sprintf("%s/par=%d", class, par), func(t *testing.T) {
				sched := &faultinject.Schedule{
					Seed:   42,
					Faults: []faultinject.Fault{{Class: class, Prob: 1}},
				}
				// The disk-full fault only fires on an explicit
				// Checkpoint (see TestChaosDiskFull).
				expectFire := class != faultinject.JournalDiskFull
				runChaosScenario(t, sched, pts, golden, par, expectFire)
			})
		}
	}
}

// TestChaosSeededSchedules runs the battery contract over derived
// schedules from pinned seeds — the same seeds CI pins — exercising
// fault combinations no hand-written scenario enumerates.
func TestChaosSeededSchedules(t *testing.T) {
	pts := quickPoints(2)
	clean, err := (&Runner{RootSeed: 7}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	golden := marshalRuns(t, clean)
	for _, seed := range []uint64{1, 7, 42, 1986} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sched := faultinject.FromSeed(seed)
			runChaosScenario(t, sched, pts, golden, 4, false)
		})
	}
}

// TestChaosDiskFull: an injected checkpoint failure surfaces typed and
// leaves the journal exactly as it was; once the one-shot fault is
// spent, compaction succeeds.
func TestChaosDiskFull(t *testing.T) {
	pts := quickPoints(1)
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sched := &faultinject.Schedule{
		Seed:   5,
		Faults: []faultinject.Fault{{Class: faultinject.JournalDiskFull}},
	}
	r := &Runner{RootSeed: 7, Journal: j, Fault: faultinject.New(sched)}
	if _, err := r.Run(pts); err != nil {
		t.Fatal(err)
	}
	ckErr := j.Checkpoint()
	if !errors.Is(ckErr, faultinject.ErrInjected) {
		t.Fatalf("want the injected disk-full error from Checkpoint, got %v", ckErr)
	}
	// The failed compaction must not have touched the journal on disk.
	j.Close()
	if reopened, err := OpenJournal(path); err != nil || reopened.Loaded() != len(pts) {
		t.Fatalf("journal after failed checkpoint: loaded=%d err=%v", reopened.Loaded(), err)
	} else {
		// The fault is one-shot per plan and this is a fresh journal
		// handle with the same armed plan object spent: a retried
		// compaction goes through.
		reopened.setFault(r.Fault.Journal())
		if err := reopened.Checkpoint(); err != nil {
			t.Fatalf("checkpoint retry after the one-shot fault: %v", err)
		}
		reopened.Close()
	}
}
