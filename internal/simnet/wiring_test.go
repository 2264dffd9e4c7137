package simnet

import (
	"testing"

	"banyan/internal/topology"
)

// TestWiringOmegaMatchesTraceMeta pins the graph engine's omega tables
// to the arithmetic the stage-model engines run (TraceMeta's NextRow and
// DigitOf, with switch s owning rows sk…sk+k-1) — the structural half of
// the collapse contract.
func TestWiringOmegaMatchesTraceMeta(t *testing.T) {
	for _, c := range []struct{ k, n int }{{2, 4}, {3, 3}, {4, 2}, {6, 2}} {
		meta, err := newTraceMeta(&Config{K: c.k, Stages: c.n})
		if err != nil {
			t.Fatal(err)
		}
		w, err := topology.WiringFor(topology.Omega, c.k, c.n)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Wrapped || meta.Rows != w.Size() {
			t.Fatalf("k=%d n=%d: meta has %d rows (wrapped %v), wiring %d", c.k, c.n, meta.Rows, meta.Wrapped, w.Size())
		}
		for stage := 1; stage <= c.n; stage++ {
			for r := 0; r < w.Size(); r++ {
				for d := 0; d < c.k; d++ {
					if got, want := w.Next(stage, r, d), int(meta.NextRow(int32(r), d)); got != want {
						t.Fatalf("k=%d n=%d stage %d: Next(%d, %d) = %d, NextRow = %d", c.k, c.n, stage, r, d, got, want)
					}
				}
				if got, want := w.SwitchOf(stage, r), r/c.k; got != want {
					t.Fatalf("k=%d n=%d stage %d: SwitchOf(%d) = %d, want %d", c.k, c.n, stage, r, got, want)
				}
			}
			for dest := 0; dest < w.Size(); dest++ {
				if got, want := w.Digit(dest, stage), meta.DigitOf(uint32(dest), stage); got != want {
					t.Fatalf("k=%d n=%d stage %d: Digit(%d) = %d, DigitOf = %d", c.k, c.n, stage, dest, got, want)
				}
			}
		}
	}
}
