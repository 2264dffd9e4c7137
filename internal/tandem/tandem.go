// Package tandem computes the waiting time at the SECOND stage of a
// k = 2 banyan network with constant message size m ≥ 1 exactly (up to
// state-space truncation), by solving the Markov chain of a tagged
// stage-2 output queue jointly with its two feeder stage-1 queues.
//
// The paper states "we do not know how to analyze the later stages
// exactly as the inputs at successive cycles are not independent"
// (Section IV) and resorts to interpolation. For the first interior
// stage, however, the exact structure is small enough to solve
// numerically: in an infinitely wide network a tagged stage-2 queue is
// fed by exactly two stage-1 output queues, which (a) receive independent
// Binomial(2, p/2) batches, (b) are independent of each other (disjoint
// input sets), and (c) route each departing message to the tagged queue
// with independent probability 1/2 (the next destination digit). The
// triple (stage-1 queue A, stage-1 queue B, tagged stage-2 queue) is a
// Markov chain whose stationary distribution yields the exact stage-2
// waiting-time distribution — a noise-free benchmark for the Section IV
// approximations (for m ≥ 2, the scaled interpolation of Section IV-B)
// and for the simulator.
//
// States are truncated at configurable lengths; with unit service the
// queue-length tails decay geometrically (rate = 1/z₀ < 0.5 for ρ ≤ 0.8
// at k = 2), so modest truncations give ~12 significant digits.
//
// Feeder state: (w = messages waiting, r = busy cycles remaining, f =
// in-flight bit). Per cycle: arrivals a ~ Binomial(2, p/2) join w; if the
// server is free (r = 0) and w > 0 a service starts (the head departs the
// waiting room, the in-flight bit is set with probability ½, and the
// server is busy for the next m cycles, i.e. r' = m-1 at end of cycle);
// otherwise r' = max(0, r-1).
//
// Tagged stage-2 queue: identical dynamics with arrivals fA + fB.
// A tagged arrival's waiting time is the number of cycles until its own
// service start: r2 + m·(w2 + ahead) measured at the arrival instant,
// where ahead counts same-cycle co-arrivals ordered before it.
package tandem

import (
	"fmt"
	"math"

	"banyan/internal/dist"
)

// Result carries the exact (truncated) stage-2 analysis.
type Result struct {
	P  float64 // per-input arrival probability
	M  int     // constant message size
	T1 int     // stage-1 queue-length truncation, in messages
	T2 int     // stage-2 queue-length truncation, in messages

	// Wait2 is the exact stage-2 waiting-time distribution; MeanWait2
	// and VarWait2 are its moments.
	Wait2     dist.PMF
	MeanWait2 float64
	VarWait2  float64

	// MeanWait1 is the stage-1 mean wait recovered from the feeder
	// marginal via Little's law (a built-in consistency check against
	// the exact first-stage formula (8); p/(4(1-p)) for m = 1).
	MeanWait1 float64

	// Residual is the final L1 change per sweep of the power iteration
	// (convergence indicator), and Sweeps the number of sweeps used.
	Residual float64
	Sweeps   int
}

// kernel is the one-cycle transition kernel of a feeder with service m.
type kernel struct {
	m, t1 int
	nx    int
	idx   [][]int32
	prob  [][]float64
}

// index packs a feeder state (w, r, f).
func (k *kernel) index(w, r, f int) int32 {
	return int32((w*k.m+r)*2 + f)
}

// buildKernel constructs the one-cycle transition kernel of a stage-1
// feeder. The in-flight bit of the current state does not influence the
// transition; it only drives the stage-2 update.
func buildKernel(p float64, m, t1 int) *kernel {
	q := p / 2
	aProb := [3]float64{(1 - q) * (1 - q), 2 * q * (1 - q), q * q}
	k := &kernel{m: m, t1: t1, nx: t1 * m * 2}
	k.idx = make([][]int32, k.nx)
	k.prob = make([][]float64, k.nx)
	for w := 0; w < t1; w++ {
		for r := 0; r < m; r++ {
			var si []int32
			var sp []float64
			add := func(i int32, pr float64) {
				for j, e := range si {
					if e == i {
						sp[j] += pr
						return
					}
				}
				si = append(si, i)
				sp = append(sp, pr)
			}
			for a := 0; a <= 2; a++ {
				pa := aProb[a]
				wp := w + a
				if wp > t1-1 {
					wp = t1 - 1 // clip (negligible by construction)
				}
				if r == 0 && wp > 0 {
					// Service start: departure, server busy m cycles
					// (r' = m-1 at end of this cycle).
					add(k.index(wp-1, m-1, 0), pa/2)
					add(k.index(wp-1, m-1, 1), pa/2)
				} else {
					rn := r - 1
					if rn < 0 {
						rn = 0
					}
					add(k.index(wp, rn, 0), pa)
				}
			}
			for f := 0; f < 2; f++ {
				i := k.index(w, r, f)
				k.idx[i] = si
				k.prob[i] = sp
			}
		}
	}
	return k
}

// Solve computes the stationary joint distribution by power iteration
// and extracts the exact stage-2 waiting-time distribution for constant
// message size m (keep m·p < 1).
//
// t1 and t2 are the queue-length truncations in messages (40 and 56 are
// ample for m = 1, p ≤ 0.8); maxSweeps bounds the iteration and tol is
// the L1 per-sweep change at which it stops.
func Solve(p float64, m, t1, t2, maxSweeps int, tol float64) (*Result, error) {
	switch {
	case p <= 0 || p >= 1:
		return nil, fmt.Errorf("tandem: p = %g out of (0,1)", p)
	case m < 1:
		return nil, fmt.Errorf("tandem: message size %d must be at least 1", m)
	case float64(m)*p >= 1:
		return nil, fmt.Errorf("tandem: unstable ρ = %g", float64(m)*p)
	case t1 < 4 || t2 < 4:
		return nil, fmt.Errorf("tandem: truncations (%d, %d) too small", t1, t2)
	case maxSweeps < 1:
		return nil, fmt.Errorf("tandem: need at least one sweep")
	}
	k := buildKernel(p, m, t1)
	nx := k.nx
	n2 := t2 * m // stage-2 states (w2, r2)
	n := nx * nx * n2

	pi := make([]float64, n)
	tmp := make([]float64, n)
	buf := make([]float64, n)
	pi[0] = 1

	// Stage-2 deterministic update given arrivals g = fA + fB:
	// wp = min(w2+g, t2-1); if r2 == 0 && wp > 0 → (wp-1, m-1) else
	// (wp, max(0, r2-1)).
	s2next := make([]int32, n2*3)
	for w2 := 0; w2 < t2; w2++ {
		for r2 := 0; r2 < m; r2++ {
			s := w2*m + r2
			for g := 0; g <= 2; g++ {
				wp := w2 + g
				if wp > t2-1 {
					wp = t2 - 1
				}
				var next int
				if r2 == 0 && wp > 0 {
					next = (wp-1)*m + (m - 1)
				} else {
					rn := r2 - 1
					if rn < 0 {
						rn = 0
					}
					next = wp*m + rn
				}
				s2next[s*3+g] = int32(next)
			}
		}
	}

	residual := math.Inf(1)
	sweeps := 0
	for sweeps = 1; sweeps <= maxSweeps; sweeps++ {
		for i := range tmp {
			tmp[i] = 0
		}
		// Step 1: stage-2 update using the current f bits.
		for x := 0; x < nx; x++ {
			fa := x & 1
			for y := 0; y < nx; y++ {
				g := fa + (y & 1)
				base := (x*nx + y) * n2
				for s := 0; s < n2; s++ {
					v := pi[base+s]
					if v == 0 {
						continue
					}
					tmp[base+int(s2next[s*3+g])] += v
				}
			}
		}
		// Step 2: contract feeder A.
		for i := range buf {
			buf[i] = 0
		}
		rowLen := nx * n2
		for x := 0; x < nx; x++ {
			si := k.idx[x]
			sp := k.prob[x]
			rowBase := x * rowLen
			for rest := 0; rest < rowLen; rest++ {
				v := tmp[rowBase+rest]
				if v == 0 {
					continue
				}
				for j, xp := range si {
					buf[int(xp)*rowLen+rest] += v * sp[j]
				}
			}
		}
		// Step 3: contract feeder B.
		for i := range tmp {
			tmp[i] = 0
		}
		for x := 0; x < nx; x++ {
			xBase := x * rowLen
			for y := 0; y < nx; y++ {
				si := k.idx[y]
				sp := k.prob[y]
				yBase := xBase + y*n2
				for s := 0; s < n2; s++ {
					v := buf[yBase+s]
					if v == 0 {
						continue
					}
					for j, yp := range si {
						tmp[xBase+int(yp)*n2+s] += v * sp[j]
					}
				}
			}
		}
		diff := 0.0
		for i := range tmp {
			diff += math.Abs(tmp[i] - pi[i])
		}
		pi, tmp = tmp, pi
		residual = diff
		if diff < tol {
			break
		}
	}
	if sweeps > maxSweeps {
		sweeps = maxSweeps
	}

	// Waiting time of a tagged arrival: at the arrival instant the queue
	// holds w2 waiting messages and the server needs r2 more cycles
	// (r2 = 0 ⇒ a start can happen this very cycle). The tagged message
	// starts after the residual, the w2 queued messages, and any
	// same-cycle co-arrival ordered ahead:
	//   wait = r2eff + m·(w2 + ahead), where r2eff accounts for the
	// service start consuming the head this cycle when r2 == 0.
	// Working through the cycle semantics: if r2 == 0 and w2 + ahead
	// == 0 the tagged message starts now (wait 0); if r2 == 0 and
	// queue ahead j > 0, the head starts now and the tagged waits
	// m·j - 0 … uniformly: wait = m·j; if r2 > 0: wait = r2 + m·(w2+ahead).
	maxW := m*(t2+2) + m
	waitProbs := make([]float64, maxW+1)
	arrivalMass := 0.0
	addWait := func(w int, v float64) {
		if w > maxW {
			w = maxW
		}
		waitProbs[w] += v
		arrivalMass += v
	}
	waitOf := func(r2, ahead int) int {
		if r2 == 0 {
			if ahead == 0 {
				return 0
			}
			return m * ahead
		}
		return r2 + m*ahead
	}
	for x := 0; x < nx; x++ {
		fa := x & 1
		for y := 0; y < nx; y++ {
			fb := y & 1
			if fa+fb == 0 {
				continue
			}
			base := (x*nx + y) * n2
			for s := 0; s < n2; s++ {
				v := pi[base+s]
				if v == 0 {
					continue
				}
				w2 := s / m
				r2 := s % m
				switch {
				case fa+fb == 2:
					addWait(waitOf(r2, w2), v)
					addWait(waitOf(r2, w2+1), v)
				default:
					addWait(waitOf(r2, w2), v)
				}
			}
		}
	}
	if arrivalMass == 0 {
		return nil, fmt.Errorf("tandem: no stage-2 arrivals in stationary distribution")
	}
	for i := range waitProbs {
		waitProbs[i] /= arrivalMass
	}
	w2pmf, err := dist.NewPMF(waitProbs)
	if err != nil {
		return nil, fmt.Errorf("tandem: wait distribution: %w", err)
	}

	// Stage-1 wait via Little on the feeder marginal: time-average
	// number waiting = λ·E[wait], λ = p messages per feeder per cycle.
	meanQ := 0.0
	for x := 0; x < nx; x++ {
		w1 := x / (2 * m)
		mMass := 0.0
		for y := 0; y < nx; y++ {
			base := (x*nx + y) * n2
			for s := 0; s < n2; s++ {
				mMass += pi[base+s]
			}
		}
		meanQ += float64(w1) * mMass
	}

	return &Result{
		P: p, M: m, T1: t1, T2: t2,
		Wait2:     w2pmf,
		MeanWait2: w2pmf.Mean(),
		VarWait2:  w2pmf.Variance(),
		MeanWait1: meanQ / p,
		Residual:  residual,
		Sweeps:    sweeps,
	}, nil
}
