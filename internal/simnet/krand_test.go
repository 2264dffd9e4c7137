package simnet

import (
	"math/rand/v2"
	"testing"
)

// TestKrandMatchesRandV2 pins krand bit-for-bit to
// rand.New(rand.NewPCG(seed1, seed2)) across the draw kinds the engines
// use: raw Uint64, Float64 and Uint64N with power-of-two, small and
// large bounds. Any divergence here would silently split the kernel's
// stream from the reference engine's, so the check interleaves the
// kinds the way the hot loops do rather than testing each in isolation.
func TestKrandMatchesRandV2(t *testing.T) {
	seeds := [][2]uint64{
		{0, 0},
		{1, 2},
		{42, 42 ^ 0x9e3779b97f4a7c15},
		{0xa5a5a5a5a5a5a5a5, 0xfffffffffffffffe},
		{^uint64(0), ^uint64(0)},
	}
	bounds := []uint64{1, 2, 3, 7, 8, 10, 64, 100, 1 << 20, (1 << 20) + 7, 1 << 40, (1 << 40) + 13, 1<<63 + 11}
	for _, sd := range seeds {
		k := newKrand(sd[0], sd[1])
		r := rand.New(rand.NewPCG(sd[0], sd[1]))
		for i := 0; i < 4096; i++ {
			switch i % 4 {
			case 0:
				if g, w := k.Uint64(), r.Uint64(); g != w {
					t.Fatalf("seed %v draw %d: Uint64 = %d, want %d", sd, i, g, w)
				}
			case 1:
				if g, w := k.Float64(), r.Float64(); g != w {
					t.Fatalf("seed %v draw %d: Float64 = %v, want %v", sd, i, g, w)
				}
			default:
				n := bounds[i%len(bounds)]
				if g, w := k.Uint64N(n), r.Uint64N(n); g != w {
					t.Fatalf("seed %v draw %d: Uint64N(%d) = %d, want %d", sd, i, n, g, w)
				}
			}
		}
	}
}

// TestKrandShuffleMatchesRandV2 pins krand's Fisher–Yates against
// rand.Rand.Shuffle: same permutation at every size, so the kernel's
// batch orders match the reference engine's, and the cycle loop's
// shuffles are those it made through math/rand/v2.
func TestKrandShuffleMatchesRandV2(t *testing.T) {
	for size := 0; size <= 65; size++ {
		k := newKrand(7, uint64(size))
		r := rand.New(rand.NewPCG(7, uint64(size)))
		a := make([]int32, size)
		b := make([]int, size)
		for i := range a {
			a[i] = int32(i)
			b[i] = i
		}
		k.shuffle(a)
		r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		for i := range a {
			if int(a[i]) != b[i] {
				t.Fatalf("size %d: shuffle diverges at %d: %d vs %d", size, i, a[i], b[i])
			}
		}
	}
}
