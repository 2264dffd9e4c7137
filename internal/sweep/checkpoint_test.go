package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"banyan/internal/simnet"
)

func marshalRuns(t *testing.T, prs []*PointResult) []byte {
	t.Helper()
	b, err := json.Marshal(resultsOf(prs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJournalResumeByteIdentical is the crash/resume integration test:
// a sweep cancelled midway and resumed from its checkpoint journal
// produces output byte-identical to an uninterrupted run.
func TestJournalResumeByteIdentical(t *testing.T) {
	pts := quickPoints(2) // 3 points × 2 reps
	clean, err := (&Runner{RootSeed: 7}).Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalRuns(t, clean)

	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// "Crash" midway: cancel after two replications — with one worker
	// that completes exactly the first point, which gets journaled.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	r1 := &Runner{
		RootSeed:    7,
		Parallelism: 1,
		Journal:     j1,
		runRep: func(ctx context.Context, e Engine, cfg *simnet.Config) (*simnet.Result, error) {
			res, err := simnet.RunEngine(ctx, e, cfg, nil)
			if done.Add(1) == 2 {
				cancel()
			}
			return res, err
		},
	}
	if _, err := r1.RunCtx(ctx, pts); !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation, got %v", err)
	}
	if j1.Len() != 1 {
		t.Fatalf("want exactly the first point journaled, got %d", j1.Len())
	}
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume in a "new process": reopen the journal and rerun the batch.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Loaded() != 1 {
		t.Fatalf("want 1 entry recovered from disk, got %d", j2.Loaded())
	}
	r2 := &Runner{RootSeed: 7, Journal: j2}
	prs, err := r2.Run(pts)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalRuns(t, prs); !bytes.Equal(got, want) {
		t.Fatal("resumed sweep is not byte-identical to the uninterrupted run")
	}
	for i := range prs {
		if prs[i].Agg.MeanTotalWait() != clean[i].Agg.MeanTotalWait() ||
			prs[i].Agg.VarTotalWait() != clean[i].Agg.VarTotalWait() {
			t.Fatalf("point %q: resumed aggregate differs", prs[i].Point.Label)
		}
	}
	// The journaled point must have been served from disk, not rerun.
	if snap := r2.Counters().Snapshot(); snap.RepsDone != 4 {
		t.Fatalf("want 4 resimulated replications (2 points), got %d", snap.RepsDone)
	}
	if j2.Len() != len(pts) {
		t.Fatalf("journal after resume holds %d of %d points", j2.Len(), len(pts))
	}
}

// TestJournalTornLine: a journal cut mid-write (torn final line, with or
// without its newline) loads the intact prefix and resimulates the rest;
// garbage before the final line refuses the file.
func TestJournalTornLine(t *testing.T) {
	pts := quickPoints(1)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{RootSeed: 7, Journal: j}).Run(pts); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for name, chop := range map[string]int{"mid-json": 10, "newline-only": 1} {
		torn := filepath.Join(t.TempDir(), name+".jsonl")
		if err := os.WriteFile(torn, full[:len(full)-chop], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("%s: torn final line must be tolerated: %v", name, err)
		}
		if jt.Loaded() != len(pts)-1 {
			t.Fatalf("%s: want %d recovered entries, got %d", name, len(pts)-1, jt.Loaded())
		}
		// The torn point resimulates; afterwards the journal is whole again.
		if _, err := (&Runner{RootSeed: 7, Journal: jt}).Run(pts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if jt.Len() != len(pts) {
			t.Fatalf("%s: journal not repaired: %d of %d", name, jt.Len(), len(pts))
		}
		jt.Close()
		if reopened, err := OpenJournal(torn); err != nil || reopened.Loaded() != len(pts) {
			t.Fatalf("%s: repaired journal reload: loaded=%d err=%v", name, reopened.Loaded(), err)
		} else {
			reopened.Close()
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, append([]byte("garbage\n"), full...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(bad); err == nil {
		t.Fatal("garbage before valid entries must refuse the file")
	}
}

// TestJournalCRLF is the regression test for the CRLF offset bug: the
// loader's byte accounting assumed "\n" endings while bufio.ScanLines
// also strips a "\r", so a journal rewritten with CRLF endings (Windows
// editor, careless transfer) computed validEnd short — and the next
// append landed mid-entry, corrupting the file.
func TestJournalCRLF(t *testing.T) {
	pts := quickPoints(1) // 3 points
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{RootSeed: 7, Journal: j}).Run(pts); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	crlf := bytes.ReplaceAll(full, []byte("\n"), []byte("\r\n"))

	// A clean CRLF journal loads fully, and appending to it must not
	// overwrite the tail of the last entry (the seek position is the
	// real end of file, not the undercounted one).
	crlfPath := filepath.Join(dir, "crlf.jsonl")
	if err := os.WriteFile(crlfPath, crlf, 0o644); err != nil {
		t.Fatal(err)
	}
	jc, err := OpenJournal(crlfPath)
	if err != nil {
		t.Fatal(err)
	}
	if jc.Loaded() != len(pts) {
		t.Fatalf("CRLF journal loaded %d of %d entries", jc.Loaded(), len(pts))
	}
	// Re-bind the recorded batch first (the header survived the CRLF
	// rewrite), then append a fresh point from a new batch.
	if _, err := (&Runner{RootSeed: 7, Journal: jc}).Run(pts); err != nil {
		t.Fatal(err)
	}
	extra := pts[0]
	extra.Label = "extra"
	extra.Cfg.P = 0.3
	if _, err := (&Runner{RootSeed: 7, Journal: jc}).Run([]Point{extra}); err != nil {
		t.Fatal(err)
	}
	jc.Close()
	if reopened, err := OpenJournal(crlfPath); err != nil || reopened.Loaded() != len(pts)+1 {
		t.Fatalf("append after CRLF load corrupted the journal: loaded=%d err=%v", reopened.Loaded(), err)
	} else {
		reopened.Close()
	}

	// Torn final lines on a CRLF journal: truncation must cut exactly at
	// the end of the intact prefix, not into it.
	for name, chop := range map[string]int{"mid-json": 10, "newline-only": 1} {
		torn := filepath.Join(dir, name+"-crlf.jsonl")
		if err := os.WriteFile(torn, crlf[:len(crlf)-chop], 0o644); err != nil {
			t.Fatal(err)
		}
		jt, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("%s: torn CRLF line must be tolerated: %v", name, err)
		}
		if jt.Loaded() != len(pts)-1 {
			t.Fatalf("%s: want %d recovered entries, got %d", name, len(pts)-1, jt.Loaded())
		}
		if _, err := (&Runner{RootSeed: 7, Journal: jt}).Run(pts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		jt.Close()
		if reopened, err := OpenJournal(torn); err != nil || reopened.Loaded() != len(pts) {
			t.Fatalf("%s: repaired CRLF journal reload: loaded=%d err=%v", name, reopened.Loaded(), err)
		} else {
			reopened.Close()
		}
	}
}

// TestSetupJournal: a non-empty checkpoint requires the explicit resume
// opt-in.
func TestSetupJournal(t *testing.T) {
	pts := quickPoints(1)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := SetupJournal(path, false)
	if err != nil {
		t.Fatalf("fresh journal: %v", err)
	}
	if _, err := (&Runner{RootSeed: 7, Journal: j}).Run(pts); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := SetupJournal(path, false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("non-empty journal without resume: want refusal mentioning -resume, got %v", err)
	}
	j2, err := SetupJournal(path, true)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if j2.Loaded() != len(pts) {
		t.Fatalf("resume recovered %d of %d", j2.Loaded(), len(pts))
	}
	j2.Close()
}

// reframeVersion rewrites record i (0-based; -1 = all) of a framed
// journal with its version field set to v, recomputing the frame so the
// CRC and length stay valid — the record is then a well-formed frame of
// an incompatible version, not mere corruption.
func reframeVersion(t *testing.T, data []byte, i, v int) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	var out []byte
	changed := false
	for n, line := range lines {
		if i >= 0 && n != i {
			out = append(out, line...)
			out = append(out, '\n')
			continue
		}
		payload, err := unframe(line)
		if err != nil {
			t.Fatalf("reframe record %d: %v", n, err)
		}
		mut := bytes.Replace(payload, []byte(`{"v":2`), []byte(fmt.Sprintf(`{"v":%d`, v)), 1)
		if bytes.Equal(mut, payload) {
			t.Fatalf("record %d: version field not found", n)
		}
		changed = true
		out = append(out, frame(mut)...)
	}
	if !changed {
		t.Fatal("no record reframed")
	}
	return out
}

// TestJournalSkipsVersionMismatch: well-formed records from an
// incompatible journal version are never trusted. A whole file of them
// is refused (it is not a version-2 journal); a mismatched record after
// valid ones truncates recovery there, so the rest resimulates.
func TestJournalSkipsVersionMismatch(t *testing.T) {
	pts := quickPoints(1)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{RootSeed: 7, Journal: j}).Run(pts); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every record (header + entries) rewritten as version 0: the file is
	// simply not a version-2 journal, and truncating it to zero would
	// destroy data some other tool may still want.
	oldPath := filepath.Join(t.TempDir(), "old.jsonl")
	if err := os.WriteFile(oldPath, reframeVersion(t, full, -1, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(oldPath); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("old-version journal: want version refusal, got %v", err)
	}

	// Only the final entry mismatched: recovery keeps the valid prefix
	// and drops the rest.
	mixPath := filepath.Join(t.TempDir(), "mixed.jsonl")
	nrecs := bytes.Count(full, []byte("\n"))
	if err := os.WriteFile(mixPath, reframeVersion(t, full, nrecs-1, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(mixPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Loaded() != len(pts)-1 {
		t.Fatalf("want %d entries before the mismatched record, got %d", len(pts)-1, j2.Loaded())
	}
}

// TestJournalConfigMismatch: resuming a journal under different flags —
// a batch whose hash is not among the journal's recorded headers — must
// fail with a typed *ConfigMismatchError naming both hashes, while a
// same-flags resume that progresses into new batches is accepted.
func TestJournalConfigMismatch(t *testing.T) {
	pts := quickPoints(1)
	path := filepath.Join(t.TempDir(), "ckpt.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Runner{RootSeed: 7, Journal: j}).Run(pts); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Changed flags: a different root seed hashes the batch differently.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = (&Runner{RootSeed: 8, Journal: j2}).Run(pts)
	var cm *ConfigMismatchError
	if !errors.As(err, &cm) {
		t.Fatalf("want *ConfigMismatchError, got %v", err)
	}
	wantBatch := BatchKey(pts, 8)
	oldBatch := BatchKey(pts, 7)
	if cm.Batch != wantBatch {
		t.Fatalf("error batch = %016x, want %016x", cm.Batch, wantBatch)
	}
	msg := err.Error()
	for _, h := range []uint64{wantBatch, oldBatch} {
		if !strings.Contains(msg, fmt.Sprintf("%016x", h)) {
			t.Fatalf("mismatch message must name hash %016x: %q", h, msg)
		}
	}
	// The rejected run must not have disturbed the journal.
	if j2.Len() != len(pts) {
		t.Fatalf("rejected resume altered the journal: %d entries", j2.Len())
	}

	// Same flags: the recorded batch re-binds, and a follow-on batch the
	// journal has never seen (the post-crash continuation) is accepted.
	r := &Runner{RootSeed: 7, Journal: j2}
	if _, err := r.Run(pts); err != nil {
		t.Fatalf("same-flags resume: %v", err)
	}
	next := pts[0]
	next.Label = "next-batch"
	next.Cfg.P = 0.35
	if _, err := r.Run([]Point{next}); err != nil {
		t.Fatalf("continuation batch after verified resume: %v", err)
	}
	if j2.Len() != len(pts)+1 {
		t.Fatalf("continuation point not journaled: %d entries", j2.Len())
	}
	j2.Close()
}
