package core

import (
	"fmt"

	"banyan/internal/dist"
	"banyan/internal/traffic"
)

// Analysis is the exact first-stage waiting-time analysis of a discrete-
// time output queue with batch arrivals R(z) and service times U(z)
// (Theorem 1). Construct with New; the zero value is not usable.
type Analysis struct {
	arr traffic.Arrivals
	svc traffic.Service

	lambda float64 // λ = R'(1)
	m      float64 // m = U'(1)
	rho    float64 // ρ = mλ
	r2, r3 float64 // R''(1), R'''(1)
	u2, u3 float64 // U''(1), U'''(1)
}

// ErrUnstable reports a queue with traffic intensity ρ ≥ 1, for which no
// steady-state waiting time exists.
type ErrUnstable struct {
	Rho float64
}

func (e ErrUnstable) Error() string {
	return fmt.Sprintf("core: queue unstable, traffic intensity ρ = %.6g ≥ 1", e.Rho)
}

// New validates the model and returns its analysis. The queue must be
// stable (ρ = mλ < 1).
func New(arr traffic.Arrivals, svc traffic.Service) (*Analysis, error) {
	a := &Analysis{
		arr:    arr,
		svc:    svc,
		lambda: arr.Rate(),
		m:      svc.Mean(),
		r2:     arr.FactorialMoment(2),
		r3:     arr.FactorialMoment(3),
		u2:     svc.FactorialMoment(2),
		u3:     svc.FactorialMoment(3),
	}
	a.rho = a.lambda * a.m
	if a.rho >= 1 {
		return nil, ErrUnstable{Rho: a.rho}
	}
	return a, nil
}

// MustNew is New that panics on an invalid model.
func MustNew(arr traffic.Arrivals, svc traffic.Service) *Analysis {
	a, err := New(arr, svc)
	if err != nil {
		panic(err)
	}
	return a
}

// Arrivals returns the arrival model.
func (a *Analysis) Arrivals() traffic.Arrivals { return a.arr }

// Service returns the service model.
func (a *Analysis) Service() traffic.Service { return a.svc }

// Rate returns λ.
func (a *Analysis) Rate() float64 { return a.lambda }

// MeanService returns m.
func (a *Analysis) MeanService() float64 { return a.m }

// Intensity returns ρ = mλ.
func (a *Analysis) Intensity() float64 { return a.rho }

// workMoments returns α₂ = A″(1) and α₃ = A‴(1) for A = R∘U.
func (a *Analysis) workMoments() (alpha2, alpha3 float64) {
	alpha2 = a.r2*a.m*a.m + a.lambda*a.u2
	alpha3 = a.r3*a.m*a.m*a.m + 3*a.r2*a.m*a.u2 + a.lambda*a.u3
	return
}

// MeanUnfinishedWork returns E s, the mean unfinished work found by an
// arriving batch.
func (a *Analysis) MeanUnfinishedWork() float64 {
	alpha2, _ := a.workMoments()
	return alpha2 / (2 * (1 - a.rho))
}

// VarUnfinishedWork returns Var s.
func (a *Analysis) VarUnfinishedWork() float64 {
	alpha2, alpha3 := a.workMoments()
	es := alpha2 / (2 * (1 - a.rho))
	es2f := alpha3/(3*(1-a.rho)) + alpha2*alpha2/(2*(1-a.rho)*(1-a.rho))
	return es2f + es - es*es
}

// MeanBatchWait returns E w′, the mean total service of same-batch
// messages served before a tagged message.
func (a *Analysis) MeanBatchWait() float64 {
	if a.lambda == 0 {
		return 0
	}
	return a.m * a.r2 / (2 * a.lambda)
}

// VarBatchWait returns Var w′.
func (a *Analysis) VarBatchWait() float64 {
	if a.lambda == 0 {
		return 0
	}
	g1 := a.m * a.r2 / (2 * a.lambda)
	g2 := a.m*a.m*a.r3/(3*a.lambda) + a.u2*a.r2/(2*a.lambda)
	return g2 + g1 - g1*g1
}

// MeanWait returns E w — the paper's equation (2),
// (m R″(1) + λ² U″(1)) / (2λ(1-mλ)).
func (a *Analysis) MeanWait() float64 {
	if a.lambda == 0 {
		return 0
	}
	return (a.m*a.r2 + a.lambda*a.lambda*a.u2) / (2 * a.lambda * (1 - a.rho))
}

// VarWait returns Var w — the paper's equation (3), evaluated as
// Var s + Var w′ (see package documentation for the re-derivation).
func (a *Analysis) VarWait() float64 {
	if a.lambda == 0 {
		return 0
	}
	return a.VarUnfinishedWork() + a.VarBatchWait()
}

// MeanDelay returns the mean queueing delay E w + m (waiting plus own
// service), as used when comparing with total network-delay formulas.
func (a *Analysis) MeanDelay() float64 { return a.MeanWait() + a.m }

// VarDelay returns Var(w + service) = Var w + Var(service); arrivals are
// independent of queue length, so the terms are uncorrelated.
func (a *Analysis) VarDelay() float64 {
	return a.VarWait() + a.svc.PMF().Variance()
}

// transformBasis returns the series Theorem 1's transforms are built
// from, truncated to n ≥ 2 terms: 1, z, U(z) and A(z) = R(U(z)), the PGF
// of one cycle's batch of work (traffic.Service has U(0) = 0).
func (a *Analysis) transformBasis(n int) (one, z, U, A dist.Series, err error) {
	if n < 2 {
		return one, z, U, A, fmt.Errorf("core: transform truncation %d too short", n)
	}
	U = a.svc.PGF(n)
	if A, err = a.arr.PGF(n).Compose(U); err != nil {
		err = fmt.Errorf("core: composing R(U(z)): %w", err)
	}
	return dist.ConstSeries(1, n), dist.IdentitySeries(n), U, A, err
}

// WaitPGF returns the waiting-time transform t(z) of Theorem 1 as a power
// series truncated to n terms; coefficient j is P(w = j) up to truncation.
func (a *Analysis) WaitPGF(n int) (dist.Series, error) {
	one, z, U, A, err := a.transformBasis(n)
	if err != nil {
		return dist.Series{}, err
	}
	if a.lambda == 0 {
		// No arrivals: waiting time is identically zero.
		return one, nil
	}
	num := one.Sub(z).Mul(one.Sub(A)) // (1-z)(1-A(z))
	den := A.Sub(z).Mul(one.Sub(U))   // (A(z)-z)(1-U(z))
	t, err := num.Div(den)
	if err != nil {
		return dist.Series{}, fmt.Errorf("core: transform division: %w (is P(no arrivals) zero?)", err)
	}
	return t.Scale((1 - a.rho) / a.lambda), nil
}

// WaitDistribution extracts the waiting-time distribution from the
// transform, truncated to n lattice points. It returns the normalized PMF
// and the probability mass lost to truncation (the tail beyond n-1, which
// callers should keep small by choosing n well past the quantiles they
// care about).
func (a *Analysis) WaitDistribution(n int) (dist.PMF, float64, error) {
	s, err := a.WaitPGF(n)
	if err != nil {
		return dist.PMF{}, 0, err
	}
	pmf, tail, err := dist.FromSeries(s, 1e-9)
	if err != nil {
		return dist.PMF{}, 0, fmt.Errorf("core: transform produced a non-PGF series: %w", err)
	}
	return pmf, tail, nil
}

// DelayDistribution returns the distribution of the total delay at the
// stage, w plus the message's own service time, truncated to n points.
func (a *Analysis) DelayDistribution(n int) (dist.PMF, float64, error) {
	w, tail, err := a.WaitDistribution(n)
	if err != nil {
		return dist.PMF{}, 0, err
	}
	d := dist.Convolve(w, a.svc.PMF())
	return d.TrimTail(0), tail, nil
}

// UnfinishedWorkPGF returns Ψ(z) = (1-ρ)(1-z)/(A(z)-z) truncated to n
// terms: the distribution of the unfinished work seen by an arriving
// batch (and, by the memoryless-arrivals argument, the time-stationary
// unfinished work).
func (a *Analysis) UnfinishedWorkPGF(n int) (dist.Series, error) {
	one, z, _, A, err := a.transformBasis(n)
	if err != nil {
		return dist.Series{}, err
	}
	psi, err := one.Sub(z).Div(A.Sub(z))
	if err != nil {
		return dist.Series{}, fmt.Errorf("core: unfinished-work division: %w", err)
	}
	return psi.Scale(1 - a.rho), nil
}

// WaitTailBound returns, from the n-term transform expansion, the exact
// P(w > x) for lattice x < n-1 (up to truncation mass, which is reported
// by WaitDistribution).
func (a *Analysis) WaitTailBound(n, x int) (float64, error) {
	s, err := a.WaitPGF(n)
	if err != nil {
		return 0, err
	}
	acc := 0.0
	for j := 0; j <= x && j < s.Len(); j++ {
		acc += s.Coeff(j)
	}
	if acc > 1 {
		acc = 1
	}
	return 1 - acc, nil
}
