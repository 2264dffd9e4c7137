package topology

import (
	"fmt"
)

// This file analyzes permutation routing on a wiring — the
// combinatorial side of the banyan family the paper's introduction cites
// (Lawrie's Ω network, Goke & Lipovski's banyans): an N-input banyan
// network has a unique path per (source, destination) pair, so a full
// permutation is routable without conflicts iff no two paths demand the
// same output port at any stage. Only N^(N/2)-ish of the N! permutations
// pass (the network is blocking); the queueing analysis of the rest of
// this repository quantifies what the blocked ones cost in delay.

// Conflict describes the first link conflict found while routing a
// permutation: two sources that need the same output port of the same
// stage in the same pass.
type Conflict struct {
	Stage int // 1-based stage
	Row   int // contended output-port row
	SrcA  int
	SrcB  int
}

func (c Conflict) Error() string {
	return fmt.Sprintf("topology: sources %d and %d both need stage-%d port %d",
		c.SrcA, c.SrcB, c.Stage, c.Row)
}

// Routable reports whether the permutation perm (perm[src] = dest) is
// routable in a single conflict-free pass. It returns nil if so, or the
// first Conflict found. perm must be a permutation of 0…N-1.
func (w *Wiring) Routable(perm []int) error {
	if err := w.validatePerm(perm); err != nil {
		return err
	}
	owner := make([]int, w.size)
	rows := make([]int, w.size)
	for src := range perm {
		rows[src] = src
	}
	for stage := 1; stage <= w.n; stage++ {
		for i := range owner {
			owner[i] = -1
		}
		for src, dest := range perm {
			r := w.Next(stage, rows[src], w.Digit(dest, stage))
			if prev := owner[r]; prev >= 0 {
				return Conflict{Stage: stage, Row: r, SrcA: prev, SrcB: src}
			}
			owner[r] = src
			rows[src] = r
		}
	}
	return nil
}

// PassCount returns the number of conflict-free passes needed to route
// the permutation greedily: each pass routes every not-yet-delivered
// source whose whole path is conflict-free given the earlier sources of
// the same pass. It is the classic store-and-forward lower-bound proxy
// for how badly a permutation fits the network (identity = 1 pass).
func (w *Wiring) PassCount(perm []int) (int, error) {
	if err := w.validatePerm(perm); err != nil {
		return 0, err
	}
	remaining := make([]int, 0, len(perm))
	for src := range perm {
		remaining = append(remaining, src)
	}
	passes := 0
	occupied := make([][]bool, w.n)
	for i := range occupied {
		occupied[i] = make([]bool, w.size)
	}
	for len(remaining) > 0 {
		passes++
		if passes > w.size*w.n+1 {
			return 0, fmt.Errorf("topology: pass counting failed to terminate")
		}
		for s := range occupied {
			for r := range occupied[s] {
				occupied[s][r] = false
			}
		}
		var blocked []int
		for _, src := range remaining {
			route := w.Route(src, perm[src])
			ok := true
			for s, r := range route {
				if occupied[s][r] {
					ok = false
					break
				}
			}
			if !ok {
				blocked = append(blocked, src)
				continue
			}
			for s, r := range route {
				occupied[s][r] = true
			}
		}
		remaining = blocked
	}
	return passes, nil
}

// validatePerm checks perm is a permutation of 0…N-1.
func (w *Wiring) validatePerm(perm []int) error {
	if len(perm) != w.size {
		return fmt.Errorf("topology: permutation length %d, want %d", len(perm), w.size)
	}
	seen := make([]bool, w.size)
	for src, dest := range perm {
		if dest < 0 || dest >= w.size {
			return fmt.Errorf("topology: perm[%d] = %d out of range", src, dest)
		}
		if seen[dest] {
			return fmt.Errorf("topology: destination %d appears twice", dest)
		}
		seen[dest] = true
	}
	return nil
}

// IdentityPerm returns the identity permutation.
func (w *Wiring) IdentityPerm() []int {
	p := make([]int, w.size)
	for i := range p {
		p[i] = i
	}
	return p
}

// BitReversalPerm returns the bit-reversal permutation (digit-reversal
// for radix k) — the FFT access pattern and a classic routability test
// case.
func (w *Wiring) BitReversalPerm() []int {
	p := make([]int, w.size)
	for src := range p {
		rev := 0
		v := src
		for d := 0; d < w.n; d++ {
			rev = rev*w.k + v%w.k
			v /= w.k
		}
		p[src] = rev
	}
	return p
}

// PerfectShufflePerm returns the perfect k-shuffle permutation
// σ(i) = (k·i) mod N + (k·i) div N, the left rotation of i's base-k
// digit string.
func (w *Wiring) PerfectShufflePerm() []int {
	p := make([]int, w.size)
	for i := range p {
		p[i] = (w.k*i)%w.size + (w.k*i)/w.size
	}
	return p
}

// TransposePerm returns the matrix-transpose permutation (swap the high
// and low halves of the digit string; n must be even): the canonical
// *hard* permutation for omega networks.
func (w *Wiring) TransposePerm() ([]int, error) {
	if w.n%2 != 0 {
		return nil, fmt.Errorf("topology: transpose needs an even number of stages, have %d", w.n)
	}
	half := 1
	for i := 0; i < w.n/2; i++ {
		half *= w.k
	}
	p := make([]int, w.size)
	for i := range p {
		hi := i / half
		lo := i % half
		p[i] = lo*half + hi
	}
	return p, nil
}
