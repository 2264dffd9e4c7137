// Package dist provides the numerical substrate for the waiting-time
// analysis: truncated power series (probability generating functions),
// discrete probability mass functions, and the special functions needed to
// evaluate gamma-distribution approximations.
//
// Everything here is pure, allocation-conscious stdlib Go. The power-series
// engine is what turns the paper's z-transforms into actual probability
// distributions: a PGF is represented by its first n Taylor coefficients
// around z = 0, and the waiting-time transform t(z) of Theorem 1 is built
// from R(z) and U(z) by composition, multiplication and division of
// truncated series. Coefficient j of the result is P(w = j) exactly
// (up to truncation), with no transform inversion step needed.
package dist

import (
	"errors"
	"fmt"
	"math"
)

// Series is a power series truncated to a fixed number of terms:
// s(z) = c[0] + c[1] z + c[2] z² + … + c[len(c)-1] z^{len(c)-1}.
//
// Series values are immutable by convention: operations return new slices
// and never alias their inputs. All binary operations require equal
// truncation orders, which keeps error management trivial: a result is
// exact in its first n coefficients whenever the inputs are.
type Series struct {
	c []float64
}

// NewSeries returns the series with the given coefficients. The slice is
// copied.
func NewSeries(coeffs []float64) Series {
	c := make([]float64, len(coeffs))
	copy(c, coeffs)
	return Series{c: c}
}

// ZeroSeries returns the zero series truncated to n terms.
func ZeroSeries(n int) Series {
	if n <= 0 {
		panic("dist: series must have at least one term")
	}
	return Series{c: make([]float64, n)}
}

// ConstSeries returns the constant series v truncated to n terms.
func ConstSeries(v float64, n int) Series {
	s := ZeroSeries(n)
	s.c[0] = v
	return s
}

// IdentitySeries returns the series z truncated to n terms (n ≥ 2).
func IdentitySeries(n int) Series {
	if n < 2 {
		panic("dist: identity series needs at least two terms")
	}
	s := ZeroSeries(n)
	s.c[1] = 1
	return s
}

// Len returns the truncation order (number of retained coefficients).
func (s Series) Len() int { return len(s.c) }

// Coeff returns the coefficient of z^j, or 0 if j is beyond the truncation.
func (s Series) Coeff(j int) float64 {
	if j < 0 || j >= len(s.c) {
		return 0
	}
	return s.c[j]
}

// Coeffs returns a copy of the coefficient slice.
func (s Series) Coeffs() []float64 {
	c := make([]float64, len(s.c))
	copy(c, s.c)
	return c
}

// Truncate returns the series truncated (or zero-extended) to n terms.
func (s Series) Truncate(n int) Series {
	if n <= 0 {
		panic("dist: series must have at least one term")
	}
	t := ZeroSeries(n)
	copy(t.c, s.c)
	return t
}

func (s Series) sameLen(t Series, op string) {
	if len(s.c) != len(t.c) {
		panic(fmt.Sprintf("dist: %s of series with mismatched truncation %d != %d", op, len(s.c), len(t.c)))
	}
}

// Add returns s + t.
func (s Series) Add(t Series) Series {
	s.sameLen(t, "Add")
	r := ZeroSeries(len(s.c))
	for i := range s.c {
		r.c[i] = s.c[i] + t.c[i]
	}
	return r
}

// Sub returns s - t.
func (s Series) Sub(t Series) Series {
	s.sameLen(t, "Sub")
	r := ZeroSeries(len(s.c))
	for i := range s.c {
		r.c[i] = s.c[i] - t.c[i]
	}
	return r
}

// Scale returns a·s.
func (s Series) Scale(a float64) Series {
	r := ZeroSeries(len(s.c))
	for i := range s.c {
		r.c[i] = a * s.c[i]
	}
	return r
}

// AddConst returns s + a (added to the constant term).
func (s Series) AddConst(a float64) Series {
	r := NewSeries(s.c)
	r.c[0] += a
	return r
}

// Mul returns the product s·t truncated to the common order.
func (s Series) Mul(t Series) Series {
	s.sameLen(t, "Mul")
	r := ZeroSeries(len(s.c))
	mulInto(r.c, s.c, t.c)
	return r
}

// mulInto adds the product s·t, truncated to len(s) terms, to r; the
// three slices have equal length.
func mulInto(r, s, t []float64) {
	n := len(s)
	for i, si := range s {
		if si == 0 {
			continue
		}
		for j := 0; i+j < n; j++ {
			r[i+j] += si * t[j]
		}
	}
}

// ErrNotInvertible reports a series division whose divisor has zero
// constant term (no formal power-series inverse exists).
var ErrNotInvertible = errors.New("dist: series divisor has zero constant term")

// Div returns s/t as a formal power series. It returns ErrNotInvertible if
// t(0) == 0 (and, to protect against catastrophic cancellation from
// OCR-of-the-universe style inputs, if |t(0)| < 1e-300).
func (s Series) Div(t Series) (Series, error) {
	s.sameLen(t, "Div")
	t0 := t.c[0]
	if math.Abs(t0) < 1e-300 {
		return Series{}, ErrNotInvertible
	}
	n := len(s.c)
	r := ZeroSeries(n)
	// Long division: r[j] = (s[j] - Σ_{i=1..j} t[i]·r[j-i]) / t[0].
	for j := 0; j < n; j++ {
		acc := s.c[j]
		for i := 1; i <= j; i++ {
			acc -= t.c[i] * r.c[j-i]
		}
		r.c[j] = acc / t0
	}
	return r, nil
}

// MustDiv is Div that panics on a non-invertible divisor. Intended for
// callers that have already validated the model (e.g. the transform
// assembly, where divisor constant terms are probabilities bounded away
// from zero for every valid traffic model).
func (s Series) MustDiv(t Series) Series {
	r, err := s.Div(t)
	if err != nil {
		panic(err)
	}
	return r
}

// Compose returns s(t(z)) truncated to the common order. It requires
// t(0) == 0; composition with a nonzero inner constant term would need
// all (untruncated) coefficients of s to get even the constant term right.
// All compositions in this package have the form R(U(z)) with U a service
// PGF and service times ≥ 1 cycle, so U(0) = 0 always holds.
//
// Composition costs O(deg s · n²) time and two n-term buffers: Horner's
// rule starts at the highest nonzero coefficient of s, since every step
// above it would multiply the zero series and add a zero.
func (s Series) Compose(t Series) (Series, error) {
	s.sameLen(t, "Compose")
	if t.c[0] != 0 {
		return Series{}, fmt.Errorf("dist: Compose requires inner series with zero constant term, got %g", t.c[0])
	}
	n := len(s.c)
	top := n - 1
	for top > 0 && s.c[top] == 0 {
		top--
	}
	// Horner evaluation over series arithmetic: r = r·t + s[j].
	r, next := ConstSeries(s.c[top], n), ZeroSeries(n)
	for j := top - 1; j >= 0; j-- {
		clear(next.c)
		mulInto(next.c, r.c, t.c)
		next.c[0] += s.c[j]
		r, next = next, r
	}
	return r, nil
}

// MustCompose is Compose that panics on a nonzero inner constant term.
func (s Series) MustCompose(t Series) Series {
	r, err := s.Compose(t)
	if err != nil {
		panic(err)
	}
	return r
}

// Derivative returns s′(z), truncated to the same order (top coefficient 0).
func (s Series) Derivative() Series {
	n := len(s.c)
	r := ZeroSeries(n)
	for j := 1; j < n; j++ {
		r.c[j-1] = float64(j) * s.c[j]
	}
	return r
}

// Eval evaluates the truncated polynomial at x by Horner's method.
func (s Series) Eval(x float64) float64 {
	acc := 0.0
	for j := len(s.c) - 1; j >= 0; j-- {
		acc = acc*x + s.c[j]
	}
	return acc
}

// Sum returns the sum of all retained coefficients (the value at z = 1 of
// the truncated polynomial). For a PGF this measures how much probability
// mass the truncation captured; 1 - Sum() is the truncated tail.
func (s Series) Sum() float64 {
	acc := 0.0
	for _, v := range s.c {
		acc += v
	}
	return acc
}

// FactorialMoment returns the r-th factorial moment Σ_j j(j-1)…(j-r+1)·c[j]
// of the coefficient sequence, i.e. s^{(r)}(1) of the truncated polynomial.
// For PGFs with negligible truncated tail this approximates the factorial
// moment of the underlying distribution.
func (s Series) FactorialMoment(r int) float64 {
	if r < 0 {
		panic("dist: negative factorial moment order")
	}
	acc := 0.0
	for j := r; j < len(s.c); j++ {
		term := s.c[j]
		for i := 0; i < r; i++ {
			term *= float64(j - i)
		}
		acc += term
	}
	return acc
}

// Mean returns the first moment Σ j·c[j] of the coefficient sequence.
func (s Series) Mean() float64 { return s.FactorialMoment(1) }

// Variance returns the variance of the coefficient sequence interpreted as
// a (sub-)probability distribution: E[j²] - E[j]².
func (s Series) Variance() float64 {
	m1 := s.FactorialMoment(1)
	m2f := s.FactorialMoment(2)
	return m2f + m1 - m1*m1
}

// String renders the first few coefficients for debugging.
func (s Series) String() string {
	n := len(s.c)
	show := n
	if show > 8 {
		show = 8
	}
	out := "Series["
	for j := 0; j < show; j++ {
		if j > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.6g", s.c[j])
	}
	if show < n {
		out += fmt.Sprintf(" …(%d terms)", n)
	}
	return out + "]"
}
