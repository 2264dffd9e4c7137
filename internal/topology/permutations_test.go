package topology

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

func TestIdentityRoutable(t *testing.T) {
	for _, kind := range Kinds() {
		for _, cfg := range []struct{ k, n int }{{2, 4}, {2, 6}, {4, 3}} {
			w := mustWiring(t, kind, cfg.k, cfg.n)
			if err := w.Routable(w.IdentityPerm()); err != nil {
				t.Fatalf("%s k=%d n=%d: identity not routable: %v", kind, cfg.k, cfg.n, err)
			}
			passes, err := w.PassCount(w.IdentityPerm())
			if err != nil || passes != 1 {
				t.Fatalf("%s identity passes = %d, %v", kind, passes, err)
			}
		}
	}
}

func TestCyclicShiftsRoutable(t *testing.T) {
	// Lawrie's classic result: the omega network routes every uniform
	// cyclic shift σ(i) = (i + c) mod N without conflict.
	w := mustWiring(t, Omega, 2, 5)
	for c := 0; c < w.Size(); c++ {
		perm := make([]int, w.Size())
		for i := range perm {
			perm[i] = (i + c) % w.Size()
		}
		if err := w.Routable(perm); err != nil {
			t.Fatalf("shift by %d not omega-routable: %v", c, err)
		}
	}
}

func TestShufflePermBlocks(t *testing.T) {
	// The perfect shuffle itself is NOT omega-routable in one pass:
	// sources 0 and N/2 both demand stage-1 port 0.
	w := mustWiring(t, Omega, 2, 5)
	if err := w.Routable(w.PerfectShufflePerm()); err == nil {
		t.Fatal("shuffle unexpectedly routable")
	}
}

// TestShuffleIsDigitRotation: the perfect shuffle of abcd₂ is bcda₂.
func TestShuffleIsDigitRotation(t *testing.T) {
	p := mustWiring(t, Omega, 2, 4).PerfectShufflePerm()
	if p[0b1011] != 0b0111 || p[0b1000] != 0b0001 {
		t.Fatalf("shuffle(1011) = %04b, shuffle(1000) = %04b", p[0b1011], p[0b1000])
	}
}

// TestShuffleInverse: the perfect shuffle is a permutation, and as a
// rotation of n digits its n-th power is the identity, so its (n-1)-th
// power is its inverse.
func TestShuffleInverse(t *testing.T) {
	for _, cfg := range []struct{ k, n int }{{2, 5}, {4, 3}, {8, 2}} {
		w := mustWiring(t, Omega, cfg.k, cfg.n)
		p := w.PerfectShufflePerm()
		if err := w.validatePerm(p); err != nil {
			t.Fatalf("k=%d n=%d: shuffle not a permutation: %v", cfg.k, cfg.n, err)
		}
		r := w.IdentityPerm()
		for pow := 0; pow < cfg.n; pow++ {
			for i := range r {
				r[i] = p[r[i]]
			}
		}
		if !slices.Equal(r, w.IdentityPerm()) {
			t.Fatalf("k=%d n=%d: shuffle^n is not the identity: %v", cfg.k, cfg.n, r)
		}
	}
}

func TestBitReversalPerm(t *testing.T) {
	p := mustWiring(t, Omega, 2, 4).BitReversalPerm()
	if p[0b0001] != 0b1000 || p[0b1011] != 0b1101 || p[0] != 0 {
		t.Fatalf("bit reversal wrong: %v", p)
	}
	// Bit reversal is an involution and a permutation.
	for i, d := range p {
		if p[d] != i {
			t.Fatalf("bit reversal not an involution at %d", i)
		}
	}
}

func TestTransposeBlocks(t *testing.T) {
	w := mustWiring(t, Omega, 2, 6)
	perm, err := w.TransposePerm()
	if err != nil {
		t.Fatal(err)
	}
	err = w.Routable(perm)
	if err == nil {
		t.Fatal("transpose should not be omega-routable in one pass")
	}
	var c Conflict
	if !errors.As(err, &c) {
		t.Fatalf("expected a Conflict, got %v", err)
	}
	if c.Error() == "" || c.Stage < 1 || c.Stage > 6 {
		t.Fatalf("conflict malformed: %+v", c)
	}
	// It needs at least 2^{n/2} = √N passes.
	passes, err := w.PassCount(perm)
	if err != nil {
		t.Fatal(err)
	}
	if passes < 1<<(w.Stages()/2) {
		t.Fatalf("transpose routed in %d passes, want at least %d", passes, 1<<(w.Stages()/2))
	}
	// Odd stage counts reject transpose.
	if _, err := mustWiring(t, Omega, 2, 5).TransposePerm(); err == nil {
		t.Fatal("expected even-stage requirement")
	}
}

func TestPassCountRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, kind := range Kinds() {
		w := mustWiring(t, kind, 2, 6)
		for trial := 0; trial < 10; trial++ {
			perm := rng.Perm(w.Size())
			passes, err := w.PassCount(perm)
			if err != nil {
				t.Fatal(err)
			}
			if passes < 1 || passes > w.Size() {
				t.Fatalf("%s: passes %d out of range", kind, passes)
			}
			// Consistency: 1 pass iff conflict-free.
			confErr := w.Routable(perm)
			if (confErr == nil) != (passes == 1) {
				t.Fatalf("%s: pass count %d inconsistent with conflict check %v", kind, passes, confErr)
			}
		}
	}
}

// TestRoutableCount: the omega network's one-pass-routable permutations
// are exactly the distinct settings of its n·N/k switches, 2^(n·N/2)
// for k = 2 — the classical count (16 for N=4, 4096 for N=8), verified
// by brute force over all N! permutations.
func TestRoutableCount(t *testing.T) {
	for _, cfg := range []struct {
		n    int
		want int
	}{{2, 16}, {3, 4096}} {
		w := mustWiring(t, Omega, 2, cfg.n)
		size := w.Size()
		perm := make([]int, size)
		used := make([]bool, size)
		count := 0
		var rec func(pos int)
		rec = func(pos int) {
			if pos == size {
				if w.Routable(perm) == nil {
					count++
				}
				return
			}
			for d := 0; d < size; d++ {
				if used[d] {
					continue
				}
				used[d] = true
				perm[pos] = d
				rec(pos + 1)
				used[d] = false
			}
		}
		rec(0)
		if count != cfg.want {
			t.Fatalf("N=%d: %d routable permutations, want %d", size, count, cfg.want)
		}
	}
}

func TestPermValidation(t *testing.T) {
	w := mustWiring(t, Omega, 2, 3)
	if err := w.Routable([]int{0, 1}); err == nil {
		t.Fatal("expected length error")
	}
	bad := w.IdentityPerm()
	bad[0] = 1 // duplicate
	if err := w.Routable(bad); err == nil {
		t.Fatal("expected duplicate error")
	}
	bad[0] = 99
	if err := w.Routable(bad); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := w.PassCount([]int{0}); err == nil {
		t.Fatal("expected pass-count validation")
	}
}
