package dist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Fatalf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestSeriesBasics(t *testing.T) {
	s := NewSeries([]float64{1, 2, 3})
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Coeff(0) != 1 || s.Coeff(2) != 3 || s.Coeff(5) != 0 || s.Coeff(-1) != 0 {
		t.Fatalf("Coeff wrong: %v", s.Coeffs())
	}
	if got := s.Eval(2); got != 1+4+12 {
		t.Fatalf("Eval(2) = %g", got)
	}
	if got := s.Sum(); got != 6 {
		t.Fatalf("Sum = %g", got)
	}
}

func TestSeriesImmutability(t *testing.T) {
	in := []float64{1, 2}
	s := NewSeries(in)
	in[0] = 99
	if s.Coeff(0) != 1 {
		t.Fatal("NewSeries did not copy input")
	}
	c := s.Coeffs()
	c[1] = 99
	if s.Coeff(1) != 2 {
		t.Fatal("Coeffs did not copy output")
	}
}

func TestSeriesAddSubScale(t *testing.T) {
	a := NewSeries([]float64{1, 2, 3})
	b := NewSeries([]float64{4, 5, 6})
	sum := a.Add(b)
	diff := sum.Sub(b)
	for j := 0; j < 3; j++ {
		almost(t, diff.Coeff(j), a.Coeff(j), 1e-15, "add/sub roundtrip")
	}
	sc := a.Scale(2)
	almost(t, sc.Coeff(2), 6, 1e-15, "scale")
	ac := a.AddConst(10)
	almost(t, ac.Coeff(0), 11, 1e-15, "addconst")
	almost(t, a.Coeff(0), 1, 0, "AddConst must not mutate receiver")
}

func TestSeriesMul(t *testing.T) {
	// (1+z)² = 1 + 2z + z²
	a := NewSeries([]float64{1, 1, 0})
	sq := a.Mul(a)
	want := []float64{1, 2, 1}
	for j, w := range want {
		almost(t, sq.Coeff(j), w, 1e-15, "square of 1+z")
	}
}

func TestSeriesMulTruncates(t *testing.T) {
	a := NewSeries([]float64{0, 1}) // z, 2 terms
	sq := a.Mul(a)                  // z² truncated away
	if sq.Coeff(0) != 0 || sq.Coeff(1) != 0 {
		t.Fatalf("truncated square = %v", sq.Coeffs())
	}
}

func TestSeriesDiv(t *testing.T) {
	// 1/(1-z) = geometric series.
	one := ConstSeries(1, 10)
	den := NewSeries([]float64{1, -1, 0, 0, 0, 0, 0, 0, 0, 0})
	g, err := one.Div(den)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 10; j++ {
		almost(t, g.Coeff(j), 1, 1e-12, "geometric coefficient")
	}
}

func TestSeriesDivByZeroConst(t *testing.T) {
	one := ConstSeries(1, 4)
	z := IdentitySeries(4)
	if _, err := one.Div(z); err == nil {
		t.Fatal("expected ErrNotInvertible")
	}
}

func TestSeriesDivRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		a := ZeroSeries(n)
		b := ZeroSeries(n)
		for j := 0; j < n; j++ {
			a.c[j] = rng.NormFloat64()
			// Keep the divisor diagonally dominant so the quotient's
			// coefficients stay O(1) and the roundtrip is
			// well-conditioned.
			b.c[j] = 0.3 * rng.NormFloat64()
		}
		b.c[0] = 1 + rng.Float64() // invertible
		q := a.MustDiv(b)
		back := q.Mul(b)
		for j := 0; j < n; j++ {
			almost(t, back.Coeff(j), a.Coeff(j), 1e-9*(1+math.Abs(a.Coeff(j))), "div/mul roundtrip")
		}
	}
}

func TestSeriesCompose(t *testing.T) {
	// s(z) = 1 + z + z², t(z) = 2z → s(t) = 1 + 2z + 4z².
	s := NewSeries([]float64{1, 1, 1})
	u := NewSeries([]float64{0, 2, 0})
	c, err := s.Compose(u)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4}
	for j, w := range want {
		almost(t, c.Coeff(j), w, 1e-14, "compose")
	}
}

// fullHornerCompose is Compose as it ran before it skipped the leading
// zero coefficients of s: Horner's rule over all n coefficients, with a
// fresh product series per step, written out here so that it stays
// independent of the package's product code.
func fullHornerCompose(s, t Series) Series {
	n := s.Len()
	r := ConstSeries(s.c[n-1], n)
	for j := n - 2; j >= 0; j-- {
		p := ZeroSeries(n)
		for i := 0; i < n; i++ {
			ri := r.c[i]
			if ri == 0 {
				continue
			}
			for k := 0; i+k < n; k++ {
				p.c[i+k] += ri * t.c[k]
			}
		}
		r = p
		r.c[0] += s.c[j]
	}
	return r
}

// TestComposeMatchesFullHorner: starting Horner's rule at the highest
// nonzero coefficient, in two alternating buffers, must leave every
// coefficient's bits as the full-length loop computes them.
func TestComposeMatchesFullHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	check := func(name string, s, u Series) {
		t.Helper()
		got, err := s.Compose(u)
		if err != nil {
			t.Fatal(err)
		}
		want := fullHornerCompose(s, u)
		for j := range want.c {
			if math.Float64bits(got.c[j]) != math.Float64bits(want.c[j]) {
				t.Fatalf("%s: coefficient %d = %v, full Horner %v", name, j, got.c[j], want.c[j])
			}
		}
	}
	for _, n := range []int{2, 3, 17, 64} {
		// Inner series: a random PGF with zero constant term.
		inner := ZeroSeries(n)
		mass := 0.0
		for j := 1; j < n; j++ {
			inner.c[j] = rng.Float64()
			mass += inner.c[j]
		}
		inner = inner.Scale(1 / mass)
		for zeros := 0; zeros < n; zeros++ {
			outer := ZeroSeries(n)
			for j := 0; j < n-zeros; j++ {
				outer.c[j] = 2*rng.Float64() - 1
			}
			check(fmt.Sprintf("n=%d trailing zeros=%d", n, zeros), outer, inner)
		}
		check(fmt.Sprintf("n=%d zero series", n), ZeroSeries(n), inner)
	}
	// The transform's own shape: the binomial R of uniform traffic over
	// unit service, U(z) = z, and over constant service, U(z) = z³.
	for _, n := range []int{256, 300} {
		r := Binomial(4, 0.2).PGF(n)
		check(fmt.Sprintf("binomial over z, n=%d", n), r, IdentitySeries(n))
		check(fmt.Sprintf("binomial over z³, n=%d", n), r, PointPMF(3).PGF(n))
	}
}

func TestSeriesComposeRejectsNonzeroInner(t *testing.T) {
	s := NewSeries([]float64{1, 1})
	u := NewSeries([]float64{0.5, 1})
	if _, err := s.Compose(u); err == nil {
		t.Fatal("expected error composing with nonzero inner constant")
	}
}

func TestSeriesComposePGFMean(t *testing.T) {
	// Composition of PGFs: mean multiplies. R = Binomial(4, .3) PGF,
	// U = z³; mean of R∘U = 1.2·3.
	r := Binomial(4, 0.3).PGF(64)
	u := PointPMF(3).PGF(64)
	a := r.MustCompose(u)
	almost(t, a.Mean(), 1.2*3, 1e-9, "compose mean")
	almost(t, a.Sum(), 1, 1e-9, "compose mass")
}

func TestSeriesDerivative(t *testing.T) {
	s := NewSeries([]float64{5, 3, 2, 7}) // 5+3z+2z²+7z³
	d := s.Derivative()
	want := []float64{3, 4, 21, 0}
	for j, w := range want {
		almost(t, d.Coeff(j), w, 1e-15, "derivative")
	}
}

func TestSeriesFactorialMoments(t *testing.T) {
	// Poisson(λ): r-th factorial moment is λ^r.
	lam := 1.7
	p := PoissonPMF(lam, 200).PGF(200)
	for r := 0; r <= 4; r++ {
		almost(t, p.FactorialMoment(r), math.Pow(lam, float64(r)), 1e-6, "Poisson factorial moment")
	}
	almost(t, p.Mean(), lam, 1e-8, "Poisson mean")
	almost(t, p.Variance(), lam, 1e-6, "Poisson variance")
}

func TestSeriesTruncate(t *testing.T) {
	s := NewSeries([]float64{1, 2, 3})
	short := s.Truncate(2)
	if short.Len() != 2 || short.Coeff(1) != 2 {
		t.Fatalf("truncate: %v", short.Coeffs())
	}
	long := s.Truncate(5)
	if long.Len() != 5 || long.Coeff(4) != 0 || long.Coeff(2) != 3 {
		t.Fatalf("extend: %v", long.Coeffs())
	}
}

func TestSeriesMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	NewSeries([]float64{1}).Add(NewSeries([]float64{1, 2}))
}

// Property: (a+b)·c == a·c + b·c under truncation.
func TestSeriesDistributivityQuick(t *testing.T) {
	f := func(av, bv, cv [8]float64) bool {
		a := NewSeries(av[:])
		b := NewSeries(bv[:])
		c := NewSeries(cv[:])
		lhs := a.Add(b).Mul(c)
		rhs := a.Mul(c).Add(b.Mul(c))
		for j := 0; j < 8; j++ {
			if d := lhs.Coeff(j) - rhs.Coeff(j); math.Abs(d) > 1e-6*(1+math.Abs(lhs.Coeff(j))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: boundedVec8}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: composition is associative with multiplication:
// (a·b)∘u == (a∘u)·(b∘u).
func TestSeriesComposeHomomorphismQuick(t *testing.T) {
	f := func(av, bv, uv [8]float64) bool {
		a := NewSeries(av[:])
		b := NewSeries(bv[:])
		u := NewSeries(uv[:])
		u.c[0] = 0
		lhs := a.Mul(b).MustCompose(u)
		rhs := a.MustCompose(u).Mul(b.MustCompose(u))
		for j := 0; j < 8; j++ {
			if d := lhs.Coeff(j) - rhs.Coeff(j); math.Abs(d) > 1e-5*(1+math.Abs(lhs.Coeff(j))) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: boundedVec8}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// boundedVec8 generates [8]float64 arguments with entries in [-1, 1] to
// keep truncated-series roundoff well-conditioned.
func boundedVec8(args []reflect.Value, rng *rand.Rand) {
	for i := range args {
		var v [8]float64
		for j := range v {
			v[j] = 2*rng.Float64() - 1
		}
		args[i] = reflect.ValueOf(v)
	}
}
