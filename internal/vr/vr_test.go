package vr

import (
	"strings"
	"testing"

	"banyan/internal/simnet"
)

// TestZeroPlanIsLegacy pins the bit-identity contract: a nil or zero
// plan must reproduce the legacy seed derivation exactly, carry salt 0,
// and enable nothing.
func TestZeroPlanIsLegacy(t *testing.T) {
	var zero Plan
	for _, p := range []*Plan{nil, &zero} {
		if p.Enabled() || p.Adaptive() {
			t.Fatalf("plan %v claims to be enabled", p)
		}
		if p.Salt() != 0 {
			t.Fatalf("plan %v has salt %d, want 0", p, p.Salt())
		}
		for rep := 0; rep < 5; rep++ {
			seed := p.RepSeed(42, 99, rep)
			if want := simnet.SplitSeed(42, uint64(rep)); seed != want {
				t.Fatalf("rep %d: seed %d, want legacy %d", rep, seed, want)
			}
		}
	}
	// CV-only plans post-process identical runs: enabled, but no salt.
	cv := &Plan{ControlVariates: true}
	if !cv.Enabled() {
		t.Error("cv plan not enabled")
	}
	if cv.Salt() != 0 {
		t.Error("cv-only plan must not salt artifact keys")
	}
}

func TestRepSeedCRN(t *testing.T) {
	crn := &Plan{CRN: true}
	s1 := crn.RepSeed(1, 7, 3)
	s2 := crn.RepSeed(2, 7, 3)
	if s1 != s2 {
		t.Error("CRN: different points must share replication seeds")
	}
	if want := simnet.SplitSeed(7, 3); s1 != want {
		t.Errorf("CRN seed %d, want SplitSeed(base, rep) = %d", s1, want)
	}
}

func TestSaltSeparatesPlans(t *testing.T) {
	plans := []*Plan{
		{CRN: true},
		{TargetCI: 0.1},
		{TargetCI: 0.05},
		{TargetCI: 0.1, MaxReps: 64},
		{CRN: true, TargetCI: 0.1},
	}
	seen := map[uint64]int{}
	for i, p := range plans {
		s := p.Salt()
		if s == 0 {
			t.Fatalf("plan %d (%v) has zero salt", i, p)
		}
		if j, dup := seen[s]; dup {
			t.Fatalf("plans %d and %d collide on salt %d", i, j, s)
		}
		seen[s] = i
	}
	// Salts are stable: same plan, same salt.
	if plans[0].Salt() != (&Plan{CRN: true}).Salt() {
		t.Error("salt not deterministic")
	}
}

// TestSaltPinned pins the salts of the plans that redirect seeds or
// replication counts: journals and caches are keyed by them, so a
// change here orphans every artifact written under CRN or -target-ci.
func TestSaltPinned(t *testing.T) {
	for _, c := range []struct {
		p    Plan
		want uint64
	}{
		{Plan{CRN: true}, 0x5b2a969b42d238a4},
		{Plan{TargetCI: 0.05}, 0x189ae2147f12cbd6},
		{Plan{CRN: true, TargetCI: 0.05, MaxReps: 64}, 0xda9dedffc38c3527},
		{Plan{ControlVariates: true}, 0},
	} {
		if got := c.p.Salt(); got != c.want {
			t.Errorf("%+v: salt %#x, want %#x", c.p, got, c.want)
		}
	}
}

func TestCheckpoints(t *testing.T) {
	p := &Plan{TargetCI: 0.1}
	cks := p.Checkpoints(100)
	if len(cks) == 0 || cks[0] != DefaultMinReps || cks[len(cks)-1] != 100 {
		t.Fatalf("checkpoints %v: want start %d, end 100", cks, DefaultMinReps)
	}
	for i := 1; i < len(cks); i++ {
		if cks[i] <= cks[i-1] {
			t.Fatalf("checkpoints not increasing: %v", cks)
		}
	}
	// Geometric cadence: the number of looks is logarithmic, not linear.
	if len(cks) > 12 {
		t.Fatalf("%d checkpoints for cap 100 — cadence not geometric: %v", len(cks), cks)
	}

	// A cap below the first checkpoint still yields exactly one look.
	small := p.Checkpoints(3)
	if len(small) != 1 || small[0] != 3 {
		t.Fatalf("cap 3 checkpoints = %v, want [3]", small)
	}
}

func TestParseString(t *testing.T) {
	cases := []struct {
		in   string
		want Plan
	}{
		{"crn", Plan{CRN: true}},
		{"cv", Plan{ControlVariates: true}},
		{"crn,cv", Plan{CRN: true, ControlVariates: true}},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if *p != c.want {
			t.Errorf("Parse(%q) = %+v, want %+v", c.in, *p, c.want)
		}
		back, err := Parse(p.String())
		if err != nil || *back != *p {
			t.Errorf("round-trip %q → %q failed", c.in, p.String())
		}
	}
	for _, empty := range []string{"", "off"} {
		if p, err := Parse(empty); err != nil || p != nil {
			t.Errorf("Parse(%q) = %v, %v; want nil plan", empty, p, err)
		}
	}
	if _, err := Parse("crn,banana"); err == nil {
		t.Error("Parse accepted an unknown technique")
	}
}

// TestParseRetiredTechnique: antithetic pairs ("anti") were retired and
// now parse like any other unknown technique.
func TestParseRetiredTechnique(t *testing.T) {
	_, err := Parse("crn,anti")
	if err == nil || !strings.Contains(err.Error(), `vr: unknown technique "anti" (want crn, cv)`) {
		t.Fatalf("Parse(crn,anti) = %v, want the unknown-technique error", err)
	}
}
