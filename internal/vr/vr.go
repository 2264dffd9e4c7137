// Package vr is the variance-reduction layer for replicated
// simulations: common random numbers across sweep points,
// regression-adjusted control variates built from the Theorem-1 exact
// stage-1 moments, CI-targeted sequential stopping, and an
// importance-splitting estimator for deep waiting-time tails.
//
// The package computes plans and estimates only; the sweep runner owns
// scheduling. Everything here is deterministic: a Plan maps (point
// seed, replication index) to a seed, and an Estimate is a pure
// function of the replication results, so VR-enabled sweeps replay
// bit-identically at any parallelism.
package vr

import (
	"fmt"
	"math"
	"strings"

	"banyan/internal/simnet"
)

// Default sequential-stopping parameters (see Plan).
const (
	DefaultMinReps    = 8
	DefaultGrowth     = 1.5
	DefaultConfidence = 0.95
)

// Plan selects which variance-reduction techniques a sweep applies.
// The zero value (and a nil *Plan) is "everything off": the runner then
// behaves bit-identically to a run without the VR layer.
type Plan struct {
	// CRN derives every replication seed from a sweep-wide base instead
	// of the per-point seed, so neighboring grid points consume common
	// random numbers: differences between points are then estimated on
	// positively correlated noise, shrinking the variance of contrasts
	// (the quantity parameter sweeps actually read). CRN runs also set
	// simnet.Config.SyncDraws so the coupled streams cannot shift
	// against each other at the first slot where only one point
	// generates a message — without that synchronization the coupling
	// collapses to the arrival indicators and most of the variance
	// reduction evaporates.
	CRN bool

	// ControlVariates subtracts fitted multiples of statistics with
	// analytically known means — the Theorem-1 stage-1 mean wait and
	// the offered-load message count — from the mean-wait estimate.
	// It changes the reported estimate, never the simulation, so it
	// needs no seed salt.
	ControlVariates bool

	// TargetCI, when positive, enables sequential stopping: the runner
	// grows each point's replication count along Checkpoints until the
	// Confidence-level half-width of the (adjusted) mean-wait estimate
	// is at most TargetCI, or the cap is reached.
	TargetCI float64

	// MaxReps caps adaptive growth (0 = the point's configured
	// replication count).
	MaxReps int

	// MinReps is the first checkpoint (0 = DefaultMinReps). The CI is
	// never consulted before MinReps replications, both because t
	// intervals at two or three replications are uselessly wide and because
	// checking must stay on a sparse cadence (see Checkpoints).
	MinReps int

	// Growth is the geometric checkpoint ratio (0 = DefaultGrowth).
	Growth float64

	// Confidence is the two-sided CI level (0 = DefaultConfidence).
	Confidence float64
}

// Enabled reports whether the plan changes anything at all.
func (p *Plan) Enabled() bool {
	return p != nil && (p.CRN || p.ControlVariates || p.TargetCI > 0)
}

// Adaptive reports whether sequential stopping is on.
func (p *Plan) Adaptive() bool { return p != nil && p.TargetCI > 0 }

// Synchronized reports whether replication configs must run with
// simnet.Config.SyncDraws: CRN is only effective when coupled streams
// keep a fixed draw budget per slot.
func (p *Plan) Synchronized() bool { return p != nil && p.CRN }

// minReps returns the first checkpoint.
func (p *Plan) minReps() int {
	if p != nil && p.MinReps > 0 {
		return p.MinReps
	}
	return DefaultMinReps
}

func (p *Plan) growth() float64 {
	if p != nil && p.Growth > 1 {
		return p.Growth
	}
	return DefaultGrowth
}

// ConfidenceLevel returns the effective CI level.
func (p *Plan) ConfidenceLevel() float64 {
	if p != nil && p.Confidence > 0 {
		return p.Confidence
	}
	return DefaultConfidence
}

// Cap returns the adaptive replication ceiling for a point configured
// with pointReps replications.
func (p *Plan) Cap(pointReps int) int {
	if p != nil && p.MaxReps > 0 {
		return p.MaxReps
	}
	return pointReps
}

// Checkpoints returns the geometric cadence of replication counts at
// which the stopping rule may consult the CI, ending exactly at the
// cap. Checking at every replication would bias coverage downward
// (optional stopping: a half-width that dips below the target by
// chance gets caught immediately); a geometric schedule keeps the
// number of looks logarithmic in the cap, which holds the empirical
// coverage within a point or two of nominal (see the coverage test).
func (p *Plan) Checkpoints(pointReps int) []int {
	cap := p.Cap(pointReps)
	var cks []int
	n := p.minReps()
	g := p.growth()
	for n < cap {
		cks = append(cks, n)
		next := int(math.Ceil(float64(n) * g))
		if next <= n {
			next = n + 1
		}
		n = next
	}
	return append(cks, cap)
}

// RepSeed maps a replication index to its simulation seed. pointSeed
// is the point's legacy seed base; crnBase is the sweep-wide base used
// when CRN is on. With the zero plan this reduces to the legacy
// derivation SplitSeed(pointSeed, rep) exactly.
func (p *Plan) RepSeed(pointSeed, crnBase uint64, rep int) uint64 {
	base := pointSeed
	if p != nil && p.CRN {
		base = crnBase
	}
	return simnet.SplitSeed(base, uint64(rep))
}

// Salt returns a non-zero hash of every plan field that changes which
// simulations run (seeds or replication counts), for XOR-ing onto
// cache, journal, and batch keys: results produced under different
// salts must never alias. Control variates are deliberately
// excluded — they post-process identical runs — and the zero salt
// means "no VR", so legacy artifacts remain addressable.
func (p *Plan) Salt() uint64 {
	if p == nil || (!p.CRN && !(p.TargetCI > 0)) {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(b2u(p.CRN))
	// A retired technique's flag (antithetic pairs) was mixed here; a
	// constant 0 keeps every remaining plan's salt, so journals and
	// caches keyed before its removal still resume.
	mix(0)
	mix(math.Float64bits(p.TargetCI))
	if p.TargetCI > 0 {
		mix(uint64(p.MaxReps))
		mix(uint64(p.minReps()))
		mix(math.Float64bits(p.growth()))
		mix(math.Float64bits(p.ConfidenceLevel()))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Parse builds a plan from the CLI syntax: a comma-separated subset of
// "crn", "cv" ("" or "off" = nil plan). TargetCI and the
// stopping parameters are set separately by their own flags.
func Parse(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return nil, nil
	}
	p := &Plan{}
	for _, tok := range strings.Split(s, ",") {
		switch strings.TrimSpace(tok) {
		case "crn":
			p.CRN = true
		case "cv":
			p.ControlVariates = true
		case "":
		default:
			return nil, fmt.Errorf("vr: unknown technique %q (want crn, cv)", tok)
		}
	}
	return p, nil
}

// String renders the plan in Parse's syntax (plus the CI target, which
// Parse leaves to its own flag).
func (p *Plan) String() string {
	if p == nil {
		return "off"
	}
	var parts []string
	if p.CRN {
		parts = append(parts, "crn")
	}
	if p.ControlVariates {
		parts = append(parts, "cv")
	}
	s := strings.Join(parts, ",")
	if s == "" {
		s = "off"
	}
	if p.TargetCI > 0 {
		s += fmt.Sprintf("+ci<%g", p.TargetCI)
	}
	return s
}
