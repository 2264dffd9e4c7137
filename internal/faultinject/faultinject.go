// Package faultinject is a zero-dependency, deterministic fault-injection
// layer for the sweep engine and its journal. A seeded Schedule arms named
// injection points — a replication panic at cycle N, a context-style
// cancellation, an arena allocation failure, a journal torn/short write or
// CRC corruption on record K, disk-full on checkpoint compaction, an
// artificial stall — and an Injector turns the schedule into
// per-replication fault plans that are pure functions of (schedule seed,
// fault class, point key, replication index). Which worker happens to
// execute a replication never changes which faults it receives, so a chaos
// run reproduces exactly from its schedule spec.
//
// Injection points follow the same contract as the obs probes: a nil
// *RepFault (or *JournalFault) is a no-op the engines pay one pointer
// comparison for, the fields are excluded from canonical config hashes,
// and every armed fault fires at most once per replication plan — so a
// retried replication converges back to the fault-free result
// bit for bit.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Class names one injection point.
type Class string

const (
	// RepPanic panics inside the engine's cycle loop, exercising the
	// sweep's panic isolation and retry path.
	RepPanic Class = "rep.panic"
	// RepCancel makes a replication return a cancellation error from
	// inside the cycle loop, exercising the never-retry-cancellation rule
	// and journal resume.
	RepCancel Class = "rep.cancel"
	// RepStall blocks a replication until its context is cancelled,
	// exercising the sweep watchdog.
	RepStall Class = "rep.stall"
	// ArenaAlloc panics at the Nth fresh slot allocation, modelling
	// resource exhaustion inside the arena.
	ArenaAlloc Class = "arena.alloc"
	// JournalTorn truncates an append mid-record and reports a write
	// error, the footprint of a crash during an append.
	JournalTorn Class = "journal.torn"
	// JournalShort drops the record's trailing bytes (newline included)
	// and reports a write error — a short write that "succeeded".
	JournalShort Class = "journal.short"
	// JournalCRC silently flips one payload bit in an appended record;
	// only the per-record CRC catches it on the next open.
	JournalCRC Class = "journal.crc"
	// JournalDiskFull fails checkpoint compaction before the atomic
	// rename, leaving the original journal intact.
	JournalDiskFull Class = "journal.diskfull"
)

// Classes lists every injection point, engine classes first.
var Classes = []Class{
	RepPanic, RepCancel, RepStall, ArenaAlloc,
	JournalTorn, JournalShort, JournalCRC, JournalDiskFull,
}

// Journal reports whether the class injects into the journal layer
// (record-indexed) rather than an engine replication (cycle-indexed).
func (c Class) Journal() bool {
	switch c {
	case JournalTorn, JournalShort, JournalCRC, JournalDiskFull:
		return true
	}
	return false
}

func (c Class) valid() bool {
	for _, k := range Classes {
		if c == k {
			return true
		}
	}
	return false
}

// ErrInjected is matched (via errors.Is) by every error an Injector
// produces, however deeply wrapped — the chaos battery's "failed typed"
// assertion in one sentinel.
var ErrInjected = errors.New("faultinject: injected fault")

// Error is the typed error carried by every injected fault.
type Error struct {
	Class  Class
	Cycle  int64 // simulated cycle the fault fired at (engine classes)
	Record int   // 0-based record ordinal (journal classes)
	cause  error
}

func (e *Error) Error() string {
	if e.Class.Journal() {
		return fmt.Sprintf("faultinject: %s at record %d", e.Class, e.Record)
	}
	return fmt.Sprintf("faultinject: %s at cycle %d", e.Class, e.Cycle)
}

// Unwrap exposes the underlying cause (context.Canceled for RepCancel,
// the stalled context's error for RepStall).
func (e *Error) Unwrap() error { return e.cause }

// Is reports true for ErrInjected so errors.Is(err, ErrInjected) matches
// any injected fault without enumerating classes.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// Fault arms one injection point within a Schedule.
type Fault struct {
	// Class names the injection point.
	Class Class
	// Prob is the per-replication arming probability for engine classes.
	// Outside (0,1) every replication is armed. Journal classes ignore it.
	Prob float64
	// Cycle is the simulated cycle an engine fault fires at (first
	// executed cycle ≥ Cycle). 0 derives a small cycle from the seed.
	Cycle int64
	// Ordinal is the fresh-slot ordinal for ArenaAlloc and the 0-based
	// record index for journal classes. 0 derives one from the seed
	// (ArenaAlloc) or targets record 0 (journal classes).
	Ordinal int
}

// Schedule is a reproducible set of armed faults. Seed drives every
// derived parameter and the per-replication arming draws; two runs with
// the same schedule and the same sweep configuration inject identically.
type Schedule struct {
	Seed   uint64
	Faults []Fault
}

// splitmix is the SplitMix64 output function — the same mixer the
// engines use for seed derivation, reimplemented here so the package
// stays dependency-free in both directions.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// mix folds any number of words through splitmix into one.
func mix(vs ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, v := range vs {
		h = splitmix(h ^ v)
	}
	return h
}

func classHash(c Class) uint64 {
	h := fnv.New64a()
	h.Write([]byte(c))
	return h.Sum64()
}

// FromSeed derives a reproducible schedule: one to three distinct fault
// classes with seed-derived parameters. Engine classes arm with
// probability ½ per replication so a batch mixes faulted and clean
// replications; journal classes target a seed-derived early record.
func FromSeed(seed uint64) *Schedule {
	n := 1 + int(mix(seed, 0xfa)%3)
	perm := make([]int, len(Classes))
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(mix(seed, 0x5e, uint64(i)) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	s := &Schedule{Seed: seed}
	for _, idx := range perm[:n] {
		f := Fault{Class: Classes[idx]}
		if !f.Class.Journal() {
			f.Prob = 0.5
		}
		s.Faults = append(s.Faults, f)
	}
	sort.Slice(s.Faults, func(i, j int) bool { return s.Faults[i].Class < s.Faults[j].Class })
	return s
}

// Parse builds a schedule from a spec string. Grammar, items separated
// by ';':
//
//	seed=N                     derive the whole schedule from N (alone)
//	                           or set the derivation seed (with faults)
//	class                      arm class with default parameters
//	class:param=val,param=val  arm class with explicit parameters
//
// Parameters: prob (float), cycle (int), ordinal / record (int, aliases).
// Example: "seed=7" or "rep.panic:cycle=100;journal.torn:record=2".
func Parse(spec string) (*Schedule, error) {
	s := &Schedule{}
	seedOnly := true
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if v, ok := strings.CutPrefix(item, "seed="); ok {
			seed, err := strconv.ParseUint(strings.TrimSpace(v), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: parse %q: bad seed: %w", spec, err)
			}
			s.Seed = seed
			continue
		}
		seedOnly = false
		name, params, _ := strings.Cut(item, ":")
		f := Fault{Class: Class(strings.TrimSpace(name))}
		if !f.Class.valid() {
			return nil, fmt.Errorf("faultinject: parse %q: unknown fault class %q (known: %v)", spec, name, Classes)
		}
		if params != "" {
			for _, kv := range strings.Split(params, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("faultinject: parse %q: parameter %q is not key=value", spec, kv)
				}
				k, v = strings.TrimSpace(k), strings.TrimSpace(v)
				switch k {
				case "prob":
					p, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return nil, fmt.Errorf("faultinject: parse %q: bad prob: %w", spec, err)
					}
					f.Prob = p
				case "cycle":
					c, err := strconv.ParseInt(v, 0, 64)
					if err != nil {
						return nil, fmt.Errorf("faultinject: parse %q: bad cycle: %w", spec, err)
					}
					f.Cycle = c
				case "ordinal", "record":
					o, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("faultinject: parse %q: bad %s: %w", spec, k, err)
					}
					f.Ordinal = o
				default:
					return nil, fmt.Errorf("faultinject: parse %q: unknown parameter %q", spec, k)
				}
			}
		}
		s.Faults = append(s.Faults, f)
	}
	if seedOnly {
		return FromSeed(s.Seed), nil
	}
	return s, nil
}

// String renders the schedule in the Parse grammar, so a chaos run can
// be reproduced by pasting the printed spec back into -chaos.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	for _, f := range s.Faults {
		b.WriteByte(';')
		b.WriteString(string(f.Class))
		var ps []string
		if f.Prob != 0 {
			ps = append(ps, "prob="+strconv.FormatFloat(f.Prob, 'g', -1, 64))
		}
		if f.Cycle != 0 {
			ps = append(ps, "cycle="+strconv.FormatInt(f.Cycle, 10))
		}
		if f.Ordinal != 0 {
			if f.Class.Journal() {
				ps = append(ps, "record="+strconv.Itoa(f.Ordinal))
			} else {
				ps = append(ps, "ordinal="+strconv.Itoa(f.Ordinal))
			}
		}
		if len(ps) > 0 {
			b.WriteByte(':')
			b.WriteString(strings.Join(ps, ","))
		}
	}
	return b.String()
}

// Injector turns a schedule into per-replication and per-journal fault
// plans and counts every fault that actually fires. Safe for concurrent
// use; a nil *Injector hands out nil plans everywhere.
type Injector struct {
	sched *Schedule

	// OnInject, when non-nil, observes every fired fault — the event-log
	// hook. Called from engine goroutines; must be safe for concurrent
	// use and must not block.
	OnInject func(Error)

	injected atomic.Int64

	mu   sync.Mutex
	reps map[repPlanKey]*RepFault
	jf   *JournalFault
}

type repPlanKey struct {
	key uint64
	rep int
}

// New builds an injector for the schedule. A nil or empty schedule still
// yields a working injector that injects nothing.
func New(s *Schedule) *Injector {
	if s == nil {
		s = &Schedule{}
	}
	return &Injector{sched: s, reps: make(map[repPlanKey]*RepFault)}
}

// Schedule returns the armed schedule (never nil).
func (in *Injector) Schedule() *Schedule { return in.sched }

// Injected returns how many faults have fired so far — the
// fault.injected counter.
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

func (in *Injector) note(e Error) {
	in.injected.Add(1)
	if f := in.OnInject; f != nil {
		f(e)
	}
}

// armed draws the per-replication arming decision for an engine fault:
// deterministic in (schedule seed, class, point key, rep), independent of
// worker scheduling.
func (in *Injector) armed(f Fault, key uint64, rep int) bool {
	if f.Prob <= 0 || f.Prob >= 1 {
		return true
	}
	u := mix(in.sched.Seed, classHash(f.Class), key, uint64(rep))
	return float64(u>>11)/(1<<53) < f.Prob
}

func (in *Injector) cycleFor(f Fault, key uint64, rep int) int64 {
	if f.Cycle > 0 {
		return f.Cycle
	}
	return 1 + int64(mix(in.sched.Seed, classHash(f.Class), key, uint64(rep), 1)%512)
}

func (in *Injector) ordinalFor(f Fault, key uint64, rep int) int64 {
	if f.Ordinal > 0 {
		return int64(f.Ordinal)
	}
	return 1 + int64(mix(in.sched.Seed, classHash(f.Class), key, uint64(rep), 2)%32)
}

// Rep returns the fault plan for replication rep of the point with
// canonical hash key, or nil when the schedule arms nothing for it. The
// same (key, rep) always returns the same plan instance, so one-shot
// faults stay fired across retries.
func (in *Injector) Rep(key uint64, rep int) *RepFault {
	if in == nil {
		return nil
	}
	pk := repPlanKey{key, rep}
	in.mu.Lock()
	defer in.mu.Unlock()
	if f, ok := in.reps[pk]; ok {
		return f
	}
	var f *RepFault
	for _, fa := range in.sched.Faults {
		if fa.Class.Journal() || !in.armed(fa, key, rep) {
			continue
		}
		if f == nil {
			f = &RepFault{in: in, panicAt: -1, cancelAt: -1, stallAt: -1, allocAt: -1}
		}
		switch fa.Class {
		case RepPanic:
			f.panicAt = in.cycleFor(fa, key, rep)
		case RepCancel:
			f.cancelAt = in.cycleFor(fa, key, rep)
		case RepStall:
			f.stallAt = in.cycleFor(fa, key, rep)
		case ArenaAlloc:
			f.allocAt = in.ordinalFor(fa, key, rep)
		}
	}
	in.reps[pk] = f // nil plans are cached too
	return f
}

// Journal returns the journal fault plan, or nil when the schedule arms
// no journal class. One plan per injector: the record ordinals index the
// journal's append stream.
func (in *Injector) Journal() *JournalFault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.jf != nil {
		return in.jf
	}
	jf := &JournalFault{in: in, tornAt: -1, shortAt: -1, crcAt: -1, fullAt: -1}
	armed := false
	for _, fa := range in.sched.Faults {
		if !fa.Class.Journal() {
			continue
		}
		armed = true
		switch fa.Class {
		case JournalTorn:
			jf.tornAt = int64(fa.Ordinal)
		case JournalShort:
			jf.shortAt = int64(fa.Ordinal)
		case JournalCRC:
			jf.crcAt = int64(fa.Ordinal)
		case JournalDiskFull:
			jf.fullAt = int64(fa.Ordinal)
		}
	}
	if !armed {
		return nil
	}
	in.jf = jf
	return jf
}

// RepFault is one replication's armed fault plan. The engines consult it
// from exactly one goroutine at a time (a replication runs on one
// worker), but firing is guarded by atomics so a plan shared across
// retries fires each fault at most once.
// All methods are nil-receiver safe.
type RepFault struct {
	in *Injector

	panicAt, cancelAt, stallAt int64 // fire cycle, -1 = disarmed
	allocAt                    int64 // fresh-slot ordinal, -1 = disarmed

	allocs                                         atomic.Int64
	panicFired, cancelFired, stallFired, allocOnce atomic.Bool
}

// AtCycle is the engines' per-cycle injection point. It may panic
// (RepPanic), block until ctx is cancelled (RepStall), or return a typed
// error (RepCancel). Engines call it at the top of the cycle loop; a nil
// plan costs one comparison.
func (f *RepFault) AtCycle(ctx context.Context, t int64) error {
	if f == nil {
		return nil
	}
	if f.panicAt >= 0 && t >= f.panicAt && f.panicFired.CompareAndSwap(false, true) {
		e := &Error{Class: RepPanic, Cycle: t}
		f.in.note(*e)
		panic(e)
	}
	if f.stallAt >= 0 && t >= f.stallAt && f.stallFired.CompareAndSwap(false, true) {
		f.in.note(Error{Class: RepStall, Cycle: t})
		<-ctx.Done()
		return &Error{Class: RepStall, Cycle: t, cause: ctx.Err()}
	}
	if f.cancelAt >= 0 && t >= f.cancelAt && f.cancelFired.CompareAndSwap(false, true) {
		e := &Error{Class: RepCancel, Cycle: t, cause: context.Canceled}
		f.in.note(*e)
		return e
	}
	return nil
}

// OnSlotAlloc is the arena's fresh-slot allocation injection point: the
// Nth fresh allocation of the replication panics with a typed error,
// modelling allocation failure. Counting spans retries, so a fired plan
// never re-fires.
func (f *RepFault) OnSlotAlloc() {
	if f == nil || f.allocAt < 0 {
		return
	}
	if f.allocs.Add(1) == f.allocAt && f.allocOnce.CompareAndSwap(false, true) {
		e := &Error{Class: ArenaAlloc}
		f.in.note(*e)
		panic(e)
	}
}

// JournalFault is the journal's armed fault plan, indexed by the 0-based
// ordinal of appended records. Safe for concurrent use.
type JournalFault struct {
	in *Injector

	tornAt, shortAt, crcAt, fullAt int64 // record ordinal, -1 = disarmed

	recs                                           atomic.Int64
	tornFired, shortFired, crcFired, diskFullFired atomic.Bool
}

// BeforeAppend intercepts one framed record about to be written. It
// returns the bytes to actually write and, for torn/short writes, the
// typed error the append must report. A JournalCRC fault mutates the
// record silently — the write "succeeds" and only the per-record CRC
// exposes it on the next open. Nil-receiver safe.
func (jf *JournalFault) BeforeAppend(line []byte) ([]byte, *Error) {
	if jf == nil {
		return line, nil
	}
	rec := jf.recs.Add(1) - 1
	if jf.tornAt >= 0 && rec >= jf.tornAt && jf.tornFired.CompareAndSwap(false, true) {
		e := &Error{Class: JournalTorn, Record: int(rec)}
		jf.in.note(*e)
		return line[:len(line)/2], e
	}
	if jf.shortAt >= 0 && rec >= jf.shortAt && jf.shortFired.CompareAndSwap(false, true) {
		e := &Error{Class: JournalShort, Record: int(rec)}
		jf.in.note(*e)
		return line[:len(line)-2], e
	}
	if jf.crcAt >= 0 && rec >= jf.crcAt && jf.crcFired.CompareAndSwap(false, true) {
		jf.in.note(Error{Class: JournalCRC, Record: int(rec)})
		mut := append([]byte(nil), line...)
		mut[len(mut)/2] ^= 0x01
		return mut, nil
	}
	return line, nil
}

// OnCheckpoint fires the disk-full fault during checkpoint compaction,
// before the atomic rename — the original journal stays intact.
// Nil-receiver safe.
func (jf *JournalFault) OnCheckpoint() error {
	if jf == nil || jf.fullAt < 0 || !jf.diskFullFired.CompareAndSwap(false, true) {
		return nil
	}
	e := &Error{Class: JournalDiskFull, Record: int(jf.recs.Load())}
	jf.in.note(*e)
	return e
}
