package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustWiring(t testing.TB, kind Kind, k, n int) *Wiring {
	t.Helper()
	w, err := WiringFor(kind, k, n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewValidation(t *testing.T) {
	for _, c := range []struct {
		kind Kind
		k, n int
	}{{Omega, 1, 3}, {Omega, 2, 0}, {Omega, 2, 60}, {"torus", 2, 3}} {
		if _, err := WiringFor(c.kind, c.k, c.n); err == nil {
			t.Fatalf("WiringFor(%q, %d, %d): expected an error", c.kind, c.k, c.n)
		}
	}
	w := mustWiring(t, Omega, 2, 6)
	if w.Size() != 64 || w.Radix() != 2 || w.Stages() != 6 || w.SwitchesPerStage() != 32 {
		t.Fatalf("wiring misconfigured: %d %d %d %d", w.Size(), w.Radix(), w.Stages(), w.SwitchesPerStage())
	}
}

func TestDigits(t *testing.T) {
	// dest 13 = 1101₂: omega consumes digits most-significant-first,
	// stage 1→4 reads 1,1,0,1; flip reads them in reverse.
	for kind, want := range map[Kind][]int{Omega: {1, 1, 0, 1}, Flip: {1, 0, 1, 1}} {
		w := mustWiring(t, kind, 2, 4)
		for stage := 1; stage <= 4; stage++ {
			if got := w.Digit(13, stage); got != want[stage-1] {
				t.Fatalf("%s Digit(13,%d) = %d, want %d", kind, stage, got, want[stage-1])
			}
		}
	}
	// dest 57 = 321₄.
	k4 := mustWiring(t, Omega, 4, 3)
	want4 := []int{3, 2, 1}
	for stage := 1; stage <= 3; stage++ {
		if got := k4.Digit(57, stage); got != want4[stage-1] {
			t.Fatalf("base-4 Digit(57,%d) = %d, want %d", stage, got, want4[stage-1])
		}
	}
}

// TestNextRowMatchesRoute: on the k=4 n=3 omega network, 17 → 42
// (42 = 222₄) visits rows (4·17+2) mod 64 = 6, 4·6+2 = 26 and
// (4·26+2) mod 64 = 42, both by iterated Next and by Route.
func TestNextRowMatchesRoute(t *testing.T) {
	w := mustWiring(t, Omega, 4, 3)
	src, dest := 17, 42
	want := []int{6, 26, 42}
	r := src
	for stage := 1; stage <= 3; stage++ {
		r = w.Next(stage, r, w.Digit(dest, stage))
		if r != want[stage-1] {
			t.Fatalf("stage %d: Next gives row %d, want %d", stage, r, want[stage-1])
		}
	}
	if rows := w.Route(src, dest); !slices.Equal(rows, want) {
		t.Fatalf("Route(%d, %d) = %v, want %v", src, dest, rows, want)
	}
}

// TestSwitchPortOf: on the k=4 n=2 omega network, row 13 is port 1 of
// switch 3 at every stage.
func TestSwitchPortOf(t *testing.T) {
	w := mustWiring(t, Omega, 4, 2)
	for stage := 1; stage <= 2; stage++ {
		if w.SwitchOf(stage, 13) != 3 || w.Next(stage, 3, 1) != 13 {
			t.Fatalf("stage %d: switch of 13 = %d, input 3 digit 1 reaches %d", stage, w.SwitchOf(stage, 13), w.Next(stage, 3, 1))
		}
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	w := mustWiring(t, Omega, 2, 3)
	for name, f := range map[string]func(){
		"digit stage 0":  func() { w.Digit(0, 0) },
		"digit stage n+": func() { w.Digit(0, 4) },
		"next row neg":   func() { w.Next(1, -1, 0) },
		"next digit big": func() { w.Next(1, 0, 2) },
		"route src":      func() { w.Route(-1, 0) },
		"route dest":     func() { w.Route(0, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: every (src, dest) route on every kind is stage-consistent —
// each hop is the table image of the previous row — and ends at dest.
func TestRouteConsistencyQuick(t *testing.T) {
	for _, kind := range Kinds() {
		w := mustWiring(t, kind, 2, 10)
		f := func(src, dest uint16) bool {
			s := int(src) % w.Size()
			d := int(dest) % w.Size()
			rows := w.Route(s, d)
			r := s
			for stage := 1; stage <= w.Stages(); stage++ {
				r = w.Next(stage, r, w.Digit(d, stage))
				if rows[stage-1] != r {
					return false
				}
			}
			return r == d
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestPermutationNetwork checks that every generated wiring is a full
// permutation network: each input reaches each output by digit routing
// (CheckPermutation) and no switch emits duplicate edges (enforced at
// construction, re-checked here explicitly). On failure the reported
// counterexample is first shrunk to the smallest (k, n) of the same
// kind that still fails, so the printed path is human-sized.
func TestPermutationNetwork(t *testing.T) {
	for _, kind := range Kinds() {
		for k := 2; k <= 5; k++ {
			for n := 1; n <= 4; n++ {
				if intPowT(k, n) > 1024 {
					continue
				}
				t.Run(fmt.Sprintf("%s/k=%d/n=%d", kind, k, n), func(t *testing.T) {
					w, err := WiringFor(kind, k, n)
					if err != nil {
						t.Fatalf("WiringFor: %v", err)
					}
					checkNoDuplicateEdges(t, w)
					if err := w.CheckPermutation(); err != nil {
						t.Fatal(shrinkPermutationFailure(kind, k, n, err))
					}
				})
			}
		}
	}
}

func intPowT(k, n int) int {
	v := 1
	for i := 0; i < n; i++ {
		v *= k
	}
	return v
}

func checkNoDuplicateEdges(t *testing.T, w *Wiring) {
	t.Helper()
	for stage := 1; stage <= w.Stages(); stage++ {
		type edge struct{ from, to int }
		seen := map[edge]int{}
		for r := 0; r < w.Size(); r++ {
			for d := 0; d < w.Radix(); d++ {
				e := edge{r, w.Next(stage, r, d)}
				if prev, dup := seen[e]; dup {
					t.Fatalf("%s stage %d: duplicate edge %d→%d (digits %d and %d)",
						w.Kind(), stage, e.from, e.to, prev, d)
				}
				seen[e] = d
			}
		}
	}
}

// shrinkPermutationFailure re-runs the permutation check on ever
// smaller (k, n) of the same wiring kind and reports the minimal
// failing instance, so a systematic generator bug prints as its
// smallest reproduction rather than a 1024-row path dump.
func shrinkPermutationFailure(kind Kind, k, n int, orig error) error {
	minErr := orig
	mink, minn := k, n
	for kk := 2; kk <= k; kk++ {
		for nn := 1; nn <= n; nn++ {
			if kk == k && nn == n {
				continue
			}
			w, err := WiringFor(kind, kk, nn)
			if err != nil {
				continue
			}
			if perr := w.CheckPermutation(); perr != nil && intPowT(kk, nn) < intPowT(mink, minn) {
				minErr, mink, minn = perr, kk, nn
			}
		}
	}
	if mink != k || minn != n {
		return fmt.Errorf("%v\n  shrunk from k=%d n=%d to minimal failing instance k=%d n=%d", minErr, k, n, mink, minn)
	}
	return fmt.Errorf("%v\n  (already minimal: no smaller %s instance fails)", minErr, kind)
}

// TestShrinkingPrinter corrupts one edge of a healthy wiring and checks
// that the permutation checker catches it and reports a typed
// counterexample carrying the offending source, destination and path.
func TestShrinkingPrinter(t *testing.T) {
	w, err := WiringFor(Omega, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the two outgoing edges of row 0 at the last stage: digit
	// routing now delivers inputs to the wrong external output.
	tbl := w.NextTable(w.Stages())
	tbl[0], tbl[1] = tbl[1], tbl[0]
	perr := w.CheckPermutation()
	if perr == nil {
		t.Fatal("corrupted wiring passed CheckPermutation")
	}
	var pe *PermutationError
	if !errors.As(perr, &pe) {
		t.Fatalf("want *PermutationError, got %T: %v", perr, perr)
	}
	if pe.Path[len(pe.Path)-1] == pe.Dest {
		t.Fatalf("counterexample path %v ends at Dest %d — not a counterexample", pe.Path, pe.Dest)
	}
	if got := shrinkPermutationFailure(Omega, 2, 3, perr); got == nil {
		t.Fatal("shrinker dropped the failure")
	}
}

// TestRelabelStage checks that relabeling rewires both sides
// consistently: routes still deliver every input to every output, and
// relabeling the last stage (the external outputs) is rejected.
func TestRelabelStage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, kind := range Kinds() {
		w, err := WiringFor(kind, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		for stage := 1; stage < w.Stages(); stage++ {
			perm := rng.Perm(w.Size())
			rw, err := w.RelabelStage(stage, perm)
			if err != nil {
				t.Fatalf("%s relabel stage %d: %v", kind, stage, err)
			}
			if err := rw.CheckPermutation(); err != nil {
				t.Fatalf("%s relabeled stage %d no longer a permutation network: %v", kind, stage, err)
			}
		}
		if _, err := w.RelabelStage(w.Stages(), rng.Perm(w.Size())); err == nil {
			t.Fatalf("%s: relabeling the last stage must be rejected", kind)
		}
		if _, err := w.RelabelStage(1, []int{0, 0, 1, 2, 3, 4, 5, 6}); err == nil {
			t.Fatalf("%s: non-permutation relabel must be rejected", kind)
		}
	}
}
