package simnet

import "math/bits"

// krand reimplements math/rand/v2's generator stack — the PCG-DXSM
// generator (O'Neill's PCG with the DXSM output mixer, as adopted by
// Numpy and Go) plus the Float64 and Lemire Uint64N derivations — as
// plain concrete methods. It is bit-for-bit identical to
// rand.New(rand.NewPCG(seed1, seed2)): same constants, same state
// update, same unbiasing, same 32-bit fallback. The point is codegen,
// not a different stream: rand.Rand draws every value through a Source
// interface call, which the compiler cannot inline into the kernel's
// hot loops; krand's draws come out of a batch-refilled ring instead,
// which is worth several ns per draw across the ~10⁷ draws of a
// typical run. The equivalence is pinned by TestKrandMatchesRandV2
// and, transitively, by every golden and differential test in the
// package, since the kernel and the trace generator draw from krand
// while the reference engine draws from math/rand/v2 itself.
//
// Draws are produced krandBufN at a time by refill, which advances the
// 128-bit LCG state in a tight loop the compiler keeps in registers:
// the serial state chain pipelines across iterations while the DXSM
// mixing of draw i overlaps the state update of draw i+1, instead of
// the whole chain re-serializing at every consumption site. Running
// the generator ahead of consumption is invisible — the state is
// private to the owner and only ever observed through the draws, whose
// sequence is unchanged.
type krand struct {
	hi, lo uint64
	pos    int
	buf    [krandBufN]uint64
}

// krandBufN is the refill batch: 32 draws (256 bytes) keeps the ring in
// a few cache lines while amortizing the refill call across the hot
// loops' draw mix.
const krandBufN = 32

func newKrand(seed1, seed2 uint64) *krand {
	return &krand{hi: seed1, lo: seed2, pos: krandBufN}
}

// refill produces the next krandBufN draws: for each, advance the
// 128-bit LCG state and apply the DXSM "double xorshift multiply"
// output mixer.
func (r *krand) refill() {
	const (
		mulHi    = 2549297995355413924
		mulLo    = 4865540595714422341
		incHi    = 6364136223846793005
		incLo    = 1442695040888963407
		cheapMul = 0xda942042e4dd58b5
	)
	hi, lo := r.hi, r.lo
	for i := range r.buf {
		// state = state * mul + inc
		h, l := bits.Mul64(lo, mulLo)
		h += hi*mulLo + lo*mulHi
		l, c := bits.Add64(l, incLo, 0)
		h, _ = bits.Add64(h, incHi, c)
		hi, lo = h, l
		// Output mixer, off the state chain's critical path.
		o := h
		o ^= o >> 32
		o *= cheapMul
		o ^= o >> 48
		o *= l | 1
		r.buf[i] = o
	}
	r.hi, r.lo = hi, lo
	r.pos = 0
}

// Uint64 returns a uniformly-distributed random uint64 value.
//
// Structured to stay under the inlining budget (cost 79 of 80): the
// rare refill is a bare statement, not a tail call, and the ring read
// reuses r.pos rather than a hoisted local.
func (r *krand) Uint64() uint64 {
	if r.pos == krandBufN {
		r.refill()
	}
	v := r.buf[r.pos]
	r.pos++
	return v
}

// Float64 returns a pseudo-random number in [0.0, 1.0).
func (r *krand) Float64() float64 {
	return float64(r.Uint64()<<11>>11) / (1 << 53)
}

// shuffle permutes b with the Fisher–Yates draws of math/rand/v2's
// Shuffle over len(b) elements.
func (r *krand) shuffle(b []int32) {
	for i := len(b) - 1; i > 0; i-- {
		j := int(r.Uint64N(uint64(i + 1)))
		b[i], b[j] = b[j], b[i]
	}
}

const krandIs32bit = ^uint(0)>>32 == 0

// Uint64N returns a uniformly-distributed random value in [0, n),
// using Lemire's multiply-shift reduction with exact unbiasing.
func (r *krand) Uint64N(n uint64) uint64 {
	if krandIs32bit && uint64(uint32(n)) == n {
		return uint64(r.uint32n(uint32(n)))
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// uint32n is the 32-bit-system variant, preserved so the output
// sequence matches math/rand/v2 on every platform.
func (r *krand) uint32n(n uint32) uint32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return uint32(r.Uint64()) & (n - 1)
	}
	x := r.Uint64()
	lo1a, lo0 := bits.Mul32(uint32(x), n)
	hi, lo1b := bits.Mul32(uint32(x>>32), n)
	lo1, c := bits.Add32(lo1a, lo1b, 0)
	hi += c
	if lo1 == 0 && lo0 < n {
		n64 := uint64(n)
		thresh := uint32(-n64 % n64)
		for lo1 == 0 && lo0 < thresh {
			x := r.Uint64()
			lo1a, lo0 = bits.Mul32(uint32(x), n)
			hi, lo1b = bits.Mul32(uint32(x>>32), n)
			lo1, c = bits.Add32(lo1a, lo1b, 0)
			hi += c
		}
	}
	return hi
}
