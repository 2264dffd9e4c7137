package sweep

import (
	"reflect"
	"testing"

	"banyan/internal/simnet"
)

// TestReferenceEngineHashesAsFast: the reference engine is byte-identical
// to the fast engine, so a point must hash — and therefore cache, seed
// and resume — identically under either; the literal engine simulates a
// different system and must not collide.
func TestReferenceEngineHashesAsFast(t *testing.T) {
	p := Point{Cfg: simnet.Config{K: 2, Stages: 4, P: 0.5, Cycles: 1000, Warmup: 100}}
	fast := Key(p, 0x5eed)
	p.Engine = Reference
	if got := Key(p, 0x5eed); got != fast {
		t.Fatalf("Key(Reference) = %016x, want Key(Fast) = %016x", got, fast)
	}
	if got := SeedFor(p, 0x5eed); got != SeedFor(Point{Cfg: p.Cfg}, 0x5eed) {
		t.Fatal("SeedFor differs between Fast and Reference")
	}
	p.Engine = Literal
	if got := Key(p, 0x5eed); got == fast {
		t.Fatal("Key(Literal) collides with Key(Fast)")
	}
}

// TestReferenceEngineSweepMatchesFast runs the same grid through the
// batch kernel and the scalar reference engine at sweep level — per-point
// seed derivation, replication pooling and all — and requires the full
// result sets to be deeply equal. This is the kernel's byte-identity
// contract exercised through the production call path rather than a
// hand-built stream.
func TestReferenceEngineSweepMatchesFast(t *testing.T) {
	grid := Grid{
		Ks: []int{2}, Ns: []int{4},
		Ps:     []float64{0.3, 0.6},
		Cycles: 800, Warmup: 100,
		Reps: 2,
	}
	pts, err := grid.Points()
	if err != nil {
		t.Fatal(err)
	}
	run := func(e Engine) []*PointResult {
		eps := make([]Point, len(pts))
		copy(eps, pts)
		for i := range eps {
			eps[i].Engine = e
		}
		r := &Runner{Parallelism: 2, RootSeed: 0x5eed}
		res, err := r.Run(eps)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, ref := run(Fast), run(Reference)
	for i := range fast {
		if fast[i].Key != ref[i].Key || fast[i].Seed != ref[i].Seed {
			t.Fatalf("point %d: key/seed mismatch", i)
		}
		if !reflect.DeepEqual(fast[i].Runs, ref[i].Runs) {
			t.Fatalf("point %d (%s): reference engine diverges from fast\nfast %+v\nref  %+v",
				i, fast[i].Point.Label, fast[i].Runs, ref[i].Runs)
		}
	}
}

func TestEngineStrings(t *testing.T) {
	for e, want := range map[Engine]string{Fast: "fast", Literal: "literal", Reference: "reference"} {
		if got := e.String(); got != want {
			t.Errorf("Engine(%d).String() = %q, want %q", e, got, want)
		}
	}
}

// BenchmarkSweepReference runs benchGrid through the scalar reference
// engine: the same-binary baseline the batch kernel's speedup in
// BENCH.json is measured against.
func BenchmarkSweepReference(b *testing.B) {
	pts := benchGrid()
	for i := range pts {
		pts[i].Engine = Reference
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &Runner{Parallelism: 1, RootSeed: 0x5eed}
		if _, err := r.Run(pts); err != nil {
			b.Fatal(err)
		}
	}
}
