package faultinject

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseSeedOnly(t *testing.T) {
	s, err := Parse("seed=42")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Seed != 42 || len(s.Faults) == 0 {
		t.Fatalf("seed-only spec should derive a schedule, got %+v", s)
	}
	s2, err := Parse("seed=42")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(s, s2) {
		t.Fatalf("FromSeed not deterministic: %+v vs %+v", s, s2)
	}
}

// TestFromSeedPinned pins the schedules the CI chaos seeds derive.
// FromSeed draws classes by index into Classes, so adding, removing or
// reordering a class silently changes what every seeded chaos run
// injects; this test makes that change visible.
func TestFromSeedPinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		1:    "seed=1;journal.diskfull;rep.panic:prob=0.5",
		7:    "seed=7;arena.alloc:prob=0.5;journal.crc",
		42:   "seed=42;journal.diskfull;rep.stall:prob=0.5",
		1986: "seed=1986;journal.diskfull;journal.short;rep.stall:prob=0.5",
	} {
		if got := FromSeed(seed).String(); got != want {
			t.Errorf("FromSeed(%d) = %q, want %q", seed, got, want)
		}
	}
}

// TestParseRetiredClass: the lane.fail class left with lock-step lanes
// and now parses like any other unknown class.
func TestParseRetiredClass(t *testing.T) {
	_, err := Parse("lane.fail:prob=0.25,cycle=3")
	if err == nil || !strings.Contains(err.Error(), `unknown fault class "lane.fail"`) {
		t.Fatalf("Parse(lane.fail) = %v, want the unknown-class error", err)
	}
}

func TestParseExplicit(t *testing.T) {
	s, err := Parse("rep.panic:cycle=100,prob=0.5; journal.torn:record=2; seed=9")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Seed != 9 || len(s.Faults) != 2 {
		t.Fatalf("got %+v", s)
	}
	if s.Faults[0].Class != RepPanic || s.Faults[0].Cycle != 100 || s.Faults[0].Prob != 0.5 {
		t.Fatalf("panic fault parsed wrong: %+v", s.Faults[0])
	}
	if s.Faults[1].Class != JournalTorn || s.Faults[1].Ordinal != 2 {
		t.Fatalf("torn fault parsed wrong: %+v", s.Faults[1])
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"rep.explode",
		"rep.panic:cycle",
		"rep.panic:cycle=abc",
		"rep.panic:budget=3",
		"seed=xyz",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) should fail", spec)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"rep.panic:cycle=100;journal.torn:record=2",
		"seed=7",
		"rep.stall:prob=0.25,cycle=3;arena.alloc:ordinal=5",
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s2, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(String()=%q): %v", s.String(), err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip %q -> %q changed schedule: %+v vs %+v", spec, s.String(), s, s2)
		}
	}
}

func TestRepPlanDeterministic(t *testing.T) {
	sched := &Schedule{Seed: 3, Faults: []Fault{{Class: RepPanic, Prob: 0.5}}}
	a, b := New(sched), New(sched)
	armedA, armedB := 0, 0
	for rep := 0; rep < 64; rep++ {
		fa, fb := a.Rep(0xbeef, rep), b.Rep(0xbeef, rep)
		if (fa == nil) != (fb == nil) {
			t.Fatalf("rep %d: arming disagrees across injectors", rep)
		}
		if fa != nil {
			armedA++
			if fa.panicAt != fb.panicAt {
				t.Fatalf("rep %d: derived cycle disagrees: %d vs %d", rep, fa.panicAt, fb.panicAt)
			}
		}
		if fb != nil {
			armedB++
		}
	}
	if armedA != armedB {
		t.Fatalf("armed counts differ: %d vs %d", armedA, armedB)
	}
	if armedA == 0 || armedA == 64 {
		t.Fatalf("prob=0.5 armed %d/64 replications; draw looks degenerate", armedA)
	}
	// The same (key, rep) must return the same plan instance, so one-shot
	// state survives retries.
	if a.Rep(0xbeef, 0) != a.Rep(0xbeef, 0) {
		t.Fatal("Rep not cached per (key, rep)")
	}
}

func TestAtCycleOneShot(t *testing.T) {
	in := New(&Schedule{Faults: []Fault{{Class: RepCancel, Cycle: 10}}})
	f := in.Rep(1, 0)
	if f == nil {
		t.Fatal("plan should be armed")
	}
	if err := f.AtCycle(context.Background(), 9); err != nil {
		t.Fatalf("fired before cycle 10: %v", err)
	}
	err := f.AtCycle(context.Background(), 10)
	if err == nil {
		t.Fatal("no error at armed cycle")
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Class != RepCancel || fe.Cycle != 10 {
		t.Fatalf("wrong error: %v", err)
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error should match ErrInjected and context.Canceled: %v", err)
	}
	if err := f.AtCycle(context.Background(), 11); err != nil {
		t.Fatalf("fired twice: %v", err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

func TestPanicAndAllocFire(t *testing.T) {
	in := New(&Schedule{Faults: []Fault{{Class: RepPanic, Cycle: 5}, {Class: ArenaAlloc, Ordinal: 3}}})
	f := in.Rep(2, 1)
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("AtCycle should panic")
			}
			if e, ok := p.(*Error); !ok || e.Class != RepPanic {
				t.Fatalf("panic value %v", p)
			}
		}()
		f.AtCycle(context.Background(), 5)
	}()
	for i := 0; i < 2; i++ {
		f.OnSlotAlloc() // ordinals 1, 2: below the armed ordinal
	}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("OnSlotAlloc should panic at ordinal 3")
			}
			if e, ok := p.(*Error); !ok || e.Class != ArenaAlloc {
				t.Fatalf("panic value %v", p)
			}
		}()
		f.OnSlotAlloc()
	}()
	f.OnSlotAlloc() // past the ordinal: never re-fires
	if got := in.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestStallBlocksUntilCancel(t *testing.T) {
	in := New(&Schedule{Faults: []Fault{{Class: RepStall, Cycle: 1}}})
	f := in.Rep(3, 0)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.AtCycle(ctx, 1) }()
	select {
	case err := <-done:
		t.Fatalf("stall returned before cancel: %v", err)
	default:
	}
	cancel()
	err := <-done
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.Canceled) {
		t.Fatalf("stall error %v", err)
	}
}

func TestJournalFaults(t *testing.T) {
	line := []byte("0a1b2c3d 40 {\"v\":2,\"key\":123456789,\"label\":\"x\"}\n")

	in := New(&Schedule{Faults: []Fault{{Class: JournalTorn, Ordinal: 1}}})
	jf := in.Journal()
	if jf == nil {
		t.Fatal("journal plan should be armed")
	}
	if got, err := jf.BeforeAppend(line); err != nil || len(got) != len(line) {
		t.Fatalf("record 0 should pass through, got %d bytes err %v", len(got), err)
	}
	got, err := jf.BeforeAppend(line)
	if err == nil || err.Class != JournalTorn || err.Record != 1 {
		t.Fatalf("record 1 should tear: %v", err)
	}
	if len(got) >= len(line) || got[len(got)-1] == '\n' {
		t.Fatalf("torn bytes should be a strict unterminated prefix, got %q", got)
	}
	if _, err := jf.BeforeAppend(line); err != nil {
		t.Fatalf("torn fault fired twice: %v", err)
	}

	in = New(&Schedule{Faults: []Fault{{Class: JournalCRC, Ordinal: 0}}})
	jf = in.Journal()
	got, err = jf.BeforeAppend(line)
	if err != nil {
		t.Fatalf("crc corruption must be silent, got %v", err)
	}
	if len(got) != len(line) || string(got) == string(line) {
		t.Fatalf("crc fault should flip a bit in place: %q", got)
	}

	in = New(&Schedule{Faults: []Fault{{Class: JournalDiskFull}}})
	jf = in.Journal()
	if err := jf.OnCheckpoint(); !errors.Is(err, ErrInjected) {
		t.Fatalf("disk-full checkpoint error %v", err)
	}
	if err := jf.OnCheckpoint(); err != nil {
		t.Fatalf("disk-full fired twice: %v", err)
	}

	in = New(&Schedule{Faults: []Fault{{Class: RepPanic}}})
	if in.Journal() != nil {
		t.Fatal("engine-only schedule should yield a nil journal plan")
	}
}

func TestNilSafety(t *testing.T) {
	var in *Injector
	if in.Rep(1, 2) != nil || in.Journal() != nil || in.Injected() != 0 {
		t.Fatal("nil injector must hand out nil plans")
	}
	var f *RepFault
	if err := f.AtCycle(context.Background(), 99); err != nil {
		t.Fatal("nil RepFault must be a no-op")
	}
	f.OnSlotAlloc()
	var jf *JournalFault
	if got, err := jf.BeforeAppend([]byte("x\n")); err != nil || string(got) != "x\n" {
		t.Fatal("nil JournalFault must pass records through")
	}
	if err := jf.OnCheckpoint(); err != nil {
		t.Fatal("nil OnCheckpoint must be a no-op")
	}
}

func TestErrorStrings(t *testing.T) {
	e := &Error{Class: RepPanic, Cycle: 42}
	if !strings.Contains(e.Error(), "rep.panic") || !strings.Contains(e.Error(), "42") {
		t.Fatalf("engine error text %q", e.Error())
	}
	je := &Error{Class: JournalTorn, Record: 3}
	if !strings.Contains(je.Error(), "record 3") {
		t.Fatalf("journal error text %q", je.Error())
	}
}
