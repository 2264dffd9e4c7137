package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// sweepGolden pins the absolute output of a full sweep — per-point cache
// keys and pooled statistics — at a fixed grid and root seed. Unlike
// TestDeterministicAcrossParallelism (which compares runs to each other),
// these literals anchor the whole pipeline to recorded values: a change
// anywhere in seed derivation, trace generation, the kernel, or
// replication pooling fails here even if it changes every run the same
// way. Regenerate intended changes with
//
//	SWEEP_GOLDEN_PRINT=1 go test ./internal/sweep/ -run TestGoldenSweep -v
var sweepGolden = map[string]struct {
	key          string
	meanW, varW  string // fmt %.10g of the pooled statistics
	messages     int64
	replications int
}{
	"k=2/n=4/p=0.3":  {key: "644551fd325c7206", meanW: "0.464343999", varW: "0.5334403283", messages: 11401, replications: 2},
	"k=2/n=4/p=0.55": {key: "41806f3ead72c7c7", meanW: "1.380648068", varW: "1.8767589", messages: 21141, replications: 2},
	"k=2/n=4/p=0.8":  {key: "f5045cadce44f69f", meanW: "4.766156469", varW: "12.81269135", messages: 30795, replications: 2},
}

func goldenSweepPoints() []Point {
	g := Grid{
		Ks: []int{2}, Ns: []int{4},
		Ps:     []float64{0.3, 0.55, 0.8},
		Cycles: 1200, Warmup: 150,
		Reps: 2,
	}
	pts, err := g.Points()
	if err != nil {
		panic(err)
	}
	return pts
}

func checkSweepGolden(t *testing.T, label string, prs []*PointResult) {
	t.Helper()
	if len(prs) != len(sweepGolden) {
		t.Fatalf("%s: %d points, want %d", label, len(prs), len(sweepGolden))
	}
	for _, pr := range prs {
		if pr.Err != nil {
			t.Fatalf("%s: point %q failed: %v", label, pr.Point.Label, pr.Err)
		}
		var msgs int64
		for _, run := range pr.Runs {
			msgs += run.Messages
		}
		key := keyHex(pr.Key)
		meanW := fmt.Sprintf("%.10g", pr.Agg.MeanTotalWait())
		varW := fmt.Sprintf("%.10g", pr.Agg.VarTotalWait())
		if os.Getenv("SWEEP_GOLDEN_PRINT") != "" {
			t.Logf("%q: {key: %q, meanW: %q, varW: %q, messages: %d, replications: %d},",
				pr.Point.Label, key, meanW, varW, msgs, len(pr.Runs))
			continue
		}
		want, ok := sweepGolden[pr.Point.Label]
		if !ok {
			t.Fatalf("%s: no golden entry for point %q", label, pr.Point.Label)
		}
		if key != want.key || meanW != want.meanW || varW != want.varW ||
			msgs != want.messages || len(pr.Runs) != want.replications {
			t.Errorf("%s: point %q diverged from golden\ngot  key=%s meanW=%s varW=%s messages=%d reps=%d\nwant %+v",
				label, pr.Point.Label, key, meanW, varW, msgs, len(pr.Runs), want)
		}
	}
}

// TestGoldenSweepAcrossParallelism: the pinned sweep values hold at every
// worker count — scheduling must never leak into results.
func TestGoldenSweepAcrossParallelism(t *testing.T) {
	for _, par := range []int{1, 4, 16} {
		r := &Runner{Parallelism: par, RootSeed: 0x5eed}
		prs, err := r.Run(goldenSweepPoints())
		if err != nil {
			t.Fatal(err)
		}
		checkSweepGolden(t, fmt.Sprintf("parallelism=%d", par), prs)
	}
}

// TestGoldenSweepThroughCheckpoint: a sweep journaled to a checkpoint and
// then replayed from disk in a fresh runner reproduces the same pinned
// values — the serialization round-trip preserves every golden field.
func TestGoldenSweepThroughCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Parallelism: 4, RootSeed: 0x5eed, Journal: j1}
	prs, err := r1.Run(goldenSweepPoints())
	if err != nil {
		t.Fatal(err)
	}
	checkSweepGolden(t, "journaled run", prs)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Loaded() != len(sweepGolden) {
		t.Fatalf("journal recovered %d points, want %d", j2.Loaded(), len(sweepGolden))
	}
	r2 := &Runner{Parallelism: 1, RootSeed: 0x5eed, Journal: j2}
	resumed, err := r2.Run(goldenSweepPoints())
	if err != nil {
		t.Fatal(err)
	}
	checkSweepGolden(t, "resumed from checkpoint", resumed)
	if snap := r2.Counters().Snapshot(); snap.RepsDone != 0 {
		t.Fatalf("resume resimulated %d replications, want all served from disk", snap.RepsDone)
	}
}
