package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"banyan/internal/faultinject"
	"banyan/internal/simnet"
)

// journalVersion is bumped whenever the record layout or the canonical
// hash changes incompatibly. Version 2 frames every record with a CRC32
// and a length (see frame), binds the journal to the batches that wrote
// it via header records, and recovers from any torn or corrupt tail by
// truncating at the first bad record.
const journalVersion = 2

// journalRecord is one framed journal line: either a batch header
// (Batch set, nothing else) binding the journal to a batch hash, or a
// completed point with its per-replication results. Key is the
// canonical config hash (which already covers the runner's root seed,
// the engine and the replication count), so an entry is valid exactly
// when the same point is swept under the same root seed again. The
// results carry their exact accumulator state — see the stats package's
// JSON round-tripping — which makes a resumed sweep byte-identical to
// an uninterrupted one.
type journalRecord struct {
	V     int              `json:"v"`
	Batch string           `json:"batch,omitempty"` // header: batch hash, %016x
	Key   uint64           `json:"key,omitempty"`
	Label string           `json:"label,omitempty"`
	Notes []string         `json:"notes,omitempty"` // recovery annotations (retries, watchdog)
	Runs  []*simnet.Result `json:"runs,omitempty"`
}

// frame wraps a marshalled record for the journal: an 8-hex-digit CRC32
// (IEEE) of the payload, the payload length in decimal, and the payload
// itself, space-separated and newline-terminated. The CRC catches silent
// corruption; the length catches a payload that was cut but still
// parses; the newline is written last in a single Write call, so a
// crash mid-append leaves an unterminated (hence detectably torn) tail.
func frame(payload []byte) []byte {
	line := make([]byte, 0, len(payload)+20)
	line = fmt.Appendf(line, "%08x %d ", crc32.ChecksumIEEE(payload), len(payload))
	line = append(line, payload...)
	return append(line, '\n')
}

// unframe validates one framed line and returns its payload.
func unframe(line []byte) ([]byte, error) {
	if len(line) < 11 || line[8] != ' ' {
		return nil, fmt.Errorf("malformed record frame")
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad record CRC field: %w", err)
	}
	rest := line[9:]
	sp := bytes.IndexByte(rest, ' ')
	if sp < 0 {
		return nil, fmt.Errorf("malformed record frame")
	}
	n, err := strconv.Atoi(string(rest[:sp]))
	if err != nil {
		return nil, fmt.Errorf("bad record length field: %w", err)
	}
	payload := rest[sp+1:]
	if len(payload) != n {
		return nil, fmt.Errorf("record length mismatch: header says %d bytes, line has %d", n, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); uint32(want) != got {
		return nil, fmt.Errorf("record CRC mismatch: header %08x, payload %08x", want, got)
	}
	return payload, nil
}

// ConfigMismatchError reports a resume attempt against a journal that
// was written by a differently-configured run: the requested batch hash
// is not among the hashes recorded in the journal's header records.
// Silently re-running every point — the old failure mode — is exactly
// what checkpointing exists to prevent, so the mismatch is loud and
// names both hashes.
type ConfigMismatchError struct {
	Path    string   // journal file
	Batch   uint64   // hash of the batch the flags describe
	Journal []uint64 // batch hashes recorded in the journal
}

func (e *ConfigMismatchError) Error() string {
	recorded := "none"
	if len(e.Journal) > 0 {
		var b bytes.Buffer
		for i, h := range e.Journal {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%016x", h)
		}
		recorded = b.String()
	}
	return fmt.Sprintf(
		"sweep: checkpoint %s was journaled under a different configuration: the requested batch hashes to %016x but the journal records batch hash(es) %s; rerun with the original flags or remove the journal",
		e.Path, e.Batch, recorded)
}

// Journal is an append-only checkpoint of completed sweep points, keyed
// by canonical config hash, with crash-safe framing: every record
// carries a CRC32 and a length, appends are single Write calls with the
// newline last, and open-time recovery truncates at the first bad
// record — so a kill, a torn write, or silent corruption costs at most
// the records at and after the damage, never the journal. A Runner with
// a Journal records every cleanly completed point and, on a later run
// (same process or not), serves journaled points without resimulating
// them. Only clean results are journaled: points that failed, were
// cancelled, or were cut by the wall-clock budget are resimulated on
// resume (deterministic saturation truncations are clean and are
// journaled, flags included).
//
// Safe for concurrent use.
type Journal struct {
	mu         sync.Mutex
	f          *os.File
	path       string
	entries    map[uint64]journalRecord
	order      []uint64 // entry keys in append order (compaction preserves it)
	batches    map[uint64]bool
	batchOrder []uint64
	loaded     int  // entries read from disk at open time
	fromDisk   bool // any content (entries or headers) read at open time
	rebound    bool // a recorded batch re-bound this process: flags verified
	broken     bool // a torn/short append left the tail dirty; appends refused
	syncEvery  int  // fsync cadence: every N appends (0 = only at close)
	appends    int
	fault      *faultinject.JournalFault
}

// OpenJournal opens (or creates) the journal at path and recovers every
// valid record already present. Recovery truncates at the first bad
// record: a torn tail (the footprint of a kill mid-append) and anything
// after a CRC or framing failure are dropped, so those points
// resimulate and new appends start on a fresh line. The one refusal is
// a file whose very first complete record is not a valid frame — that
// file is not a (version-compatible) journal, and truncating it would
// destroy someone's data.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	j := &Journal{
		f:       f,
		path:    path,
		entries: make(map[uint64]journalRecord),
		batches: make(map[uint64]bool),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	// Wrap ScanLines to capture, per line, the bytes actually consumed
	// and whether the line still had its terminating newline. ScanLines
	// strips a '\r' before the '\n', so the obvious len(line)+1 offset
	// arithmetic undercounts CRLF files — and a short validEnd would
	// truncate into a valid record when dropping a torn tail. The
	// captured advance is exact for either line ending.
	var adv int64
	var terminated bool
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		advance, token, err := bufio.ScanLines(data, atEOF)
		if advance > 0 || token != nil {
			adv = int64(advance)
			terminated = advance > 0 && data[advance-1] == '\n'
		}
		return advance, token, err
	})
	recs := 0
	var off, validEnd int64
	for sc.Scan() {
		line := sc.Bytes()
		off += adv
		if len(line) == 0 {
			if terminated {
				validEnd = off
			}
			continue
		}
		recs++
		payload, err := unframe(line)
		var rec journalRecord
		if err == nil {
			if err = json.Unmarshal(payload, &rec); err == nil && rec.V != journalVersion {
				err = fmt.Errorf("record version %d, want %d", rec.V, journalVersion)
			}
		}
		if err != nil {
			if terminated && recs == 1 {
				// A complete first record that does not frame: the file is
				// not a version-2 journal at all. Refuse rather than
				// truncate someone's data to zero.
				f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
				return nil, fmt.Errorf("sweep: %s is not a version-%d journal (%v); remove it or point -checkpoint elsewhere", path, journalVersion, err)
			}
			// First bad record: recovery truncates here. Everything at and
			// after the damage is dropped and resimulates.
			break
		}
		if !terminated {
			// A final record that frames but lost its newline is still
			// torn: appending after it would corrupt the next record.
			// Leaving validEnd behind drops it below.
			break
		}
		validEnd = off
		if rec.Batch != "" {
			if h, perr := strconv.ParseUint(rec.Batch, 16, 64); perr == nil && !j.batches[h] {
				j.batches[h] = true
				j.batchOrder = append(j.batchOrder, h)
			}
			continue
		}
		if _, dup := j.entries[rec.Key]; !dup {
			j.order = append(j.order, rec.Key)
		}
		j.entries[rec.Key] = rec
	}
	if err := sc.Err(); err != nil {
		f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return nil, fmt.Errorf("sweep: read journal %s: %w", path, err)
	}
	if st, err := f.Stat(); err != nil {
		f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return nil, fmt.Errorf("sweep: stat journal: %w", err)
	} else if st.Size() > validEnd {
		if err := f.Truncate(validEnd); err != nil {
			f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
			return nil, fmt.Errorf("sweep: drop bad journal tail: %w", err)
		}
	}
	j.loaded = len(j.entries)
	j.fromDisk = len(j.entries) > 0 || len(j.batchOrder) > 0
	if _, err := f.Seek(validEnd, 0); err != nil {
		f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return nil, fmt.Errorf("sweep: seek journal: %w", err)
	}
	return j, nil
}

// Len returns the number of completed points the journal holds.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Loaded returns the number of entries recovered from disk when the
// journal was opened (before any appends from the current process).
func (j *Journal) Loaded() int { return j.loaded }

// SetFsync sets the durability policy: fsync the journal after every
// n-th append (1 = every append, 0 = only at Close and Checkpoint).
func (j *Journal) SetFsync(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncEvery = n
}

// setFault arms the chaos injection points on the append/checkpoint
// path; nil disarms.
func (j *Journal) setFault(jf *faultinject.JournalFault) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.fault = jf
}

// Close syncs and closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	serr := j.f.Sync()
	err := j.f.Close()
	j.f = nil
	if err == nil {
		err = serr
	}
	return err
}

// get returns the journaled replication results for a key.
func (j *Journal) get(key uint64) ([]*simnet.Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return nil, false
	}
	return e.Runs, true
}

// bind ties the journal to a batch: the hash of the batch's canonical
// point keys under the runner's root seed (see BatchKey). A fresh
// journal records the hash as a header line. On a journal carrying
// content from an earlier process, the FIRST batch bound must be one
// the journal has recorded — a mismatch there means the flags changed
// since the journal was written, and resuming would silently re-run
// every point, so it fails with a *ConfigMismatchError naming both
// sides. Once one recorded batch has re-bound (proving the flags
// match), later unrecorded batches are accepted and recorded: a
// multi-batch program resumed past its crash point naturally reaches
// batches the journal has never seen.
func (j *Journal) bind(batch uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.batches[batch] {
		j.rebound = true
		return nil
	}
	if j.fromDisk && !j.rebound {
		return &ConfigMismatchError{Path: j.path, Batch: batch, Journal: append([]uint64(nil), j.batchOrder...)}
	}
	if j.f == nil {
		return fmt.Errorf("sweep: journal closed")
	}
	payload, err := json.Marshal(journalRecord{V: journalVersion, Batch: keyHex(batch)})
	if err != nil {
		return fmt.Errorf("sweep: journal header: %w", err)
	}
	if _, err := j.f.Write(frame(payload)); err != nil {
		return fmt.Errorf("sweep: journal header: %w", err)
	}
	j.batches[batch] = true
	j.batchOrder = append(j.batchOrder, batch)
	return nil
}

// append records a completed point, with any recovery notes the run
// accumulated. The line is marshalled and framed outside the lock and
// written with a single Write call, newline last.
func (j *Journal) append(key uint64, label string, runs []*simnet.Result, notes []string) error {
	rec := journalRecord{V: journalVersion, Key: key, Label: label, Notes: notes, Runs: runs}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: journal marshal %q: %w", label, err)
	}
	line := frame(payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("sweep: journal closed")
	}
	if j.broken {
		return fmt.Errorf("sweep: journal %s: an earlier append tore the tail; reopen the journal to recover", j.path)
	}
	if _, ok := j.entries[key]; ok {
		return nil // already journaled (duplicate point across batches)
	}
	if ferr := j.faultedWrite(line, label); ferr != nil {
		return ferr
	}
	j.entries[key] = rec
	j.order = append(j.order, key)
	j.appends++
	if j.syncEvery > 0 && j.appends%j.syncEvery == 0 {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("sweep: journal sync: %w", err)
		}
	}
	return nil
}

// faultedWrite performs the append's Write call, routed through the
// armed journal fault plan (if any): a torn or short write puts the
// mutilated bytes on disk, marks the journal broken and reports the
// typed injected error; a CRC fault corrupts the line silently.
func (j *Journal) faultedWrite(line []byte, label string) error {
	if j.fault != nil {
		mut, ferr := j.fault.BeforeAppend(line)
		if ferr != nil {
			j.f.Write(mut) //nolint:errcheck // the injected failure is the interesting one
			j.broken = true
			return fmt.Errorf("sweep: journal append %q: %w", label, ferr)
		}
		line = mut
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("sweep: journal append %q: %w", label, err)
	}
	return nil
}

// Checkpoint compacts the journal atomically: every header and entry is
// rewritten, in original order, to a temporary file that is fsynced and
// renamed over the journal (with a directory sync), so at every instant
// the path holds either the old complete journal or the new one. A
// failure — disk full included — leaves the original untouched.
// Compaction also repairs a journal whose tail was torn by a failed
// append: the in-memory entries are intact, and the rewrite drops the
// dirty tail.
func (j *Journal) Checkpoint() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("sweep: journal closed")
	}
	if err := j.fault.OnCheckpoint(); err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	tmp := j.path + ".tmp"
	nf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	fail := func(err error) error {
		nf.Close()     //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	bw := bufio.NewWriterSize(nf, 1<<20)
	writeRec := func(rec journalRecord) error {
		payload, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		_, err = bw.Write(frame(payload))
		return err
	}
	for _, h := range j.batchOrder {
		if err := writeRec(journalRecord{V: journalVersion, Batch: keyHex(h)}); err != nil {
			return fail(err)
		}
	}
	for _, key := range j.order {
		if err := writeRec(j.entries[key]); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := nf.Sync(); err != nil {
		return fail(err)
	}
	if err := nf.Close(); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	if err := os.Rename(tmp, j.path); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return fmt.Errorf("sweep: checkpoint %s: %w", j.path, err)
	}
	// Make the rename durable, then move the live handle to the new file
	// so subsequent appends land after the compacted records.
	if d, derr := os.Open(filepath.Dir(j.path)); derr == nil {
		d.Sync()  //nolint:errcheck // best-effort directory durability
		d.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
	}
	f, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: checkpoint %s: reopen: %w", j.path, err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return fmt.Errorf("sweep: checkpoint %s: seek: %w", j.path, err)
	}
	j.f.Close() //nolint:errcheck // superseded handle; the data lives in the renamed file
	j.f = f
	j.broken = false
	return nil
}

// SetupJournal opens the checkpoint journal at path for a command-line
// run. Unless resume is set, a journal that already holds completed
// points is refused — reusing stale results silently is exactly the
// failure mode checkpointing exists to prevent.
func SetupJournal(path string, resume bool) (*Journal, error) {
	j, err := OpenJournal(path)
	if err != nil {
		return nil, err
	}
	if !resume && j.Len() > 0 {
		n := j.Len()
		j.Close() //nolint:errcheck // best-effort cleanup; the failure being reported matters more
		return nil, fmt.Errorf("sweep: checkpoint %s already holds %d completed points; pass -resume to reuse them or remove the file", path, n)
	}
	return j, nil
}
