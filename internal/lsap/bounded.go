package lsap

import (
	"fmt"
	"math"
)

// This file is the bounded-quality certification layer: helpers that
// turn auction prices (or any prior dual guess) into *feasible* LSAP
// potentials, measure the normalized optimality gap they certify, and
// the typed error a bounded solver returns when it cannot attest its
// answer within the requested ε. The contract mirrors the silent-
// corruption one (see faultinject.CorruptionError): a bounded solve
// ends in an answer certified within ε via VerifyOptimalWithBound, or
// in an error matchable to *GapError — never a silently worse result.

// GapError reports that a bounded-quality solve could not certify its
// answer within the requested normalized gap. The answer is withheld:
// callers either get an attested-within-ε solution or this typed
// failure. Match with errors.As.
type GapError struct {
	// Solver names the implementation that gave up.
	Solver string
	// Epsilon is the normalized gap the caller requested.
	Epsilon float64
	// Gap is the best certified gap the solver achieved before giving
	// up (math.Inf(1) when it never produced a certificate).
	Gap float64
}

// Error implements error.
func (e *GapError) Error() string {
	return fmt.Sprintf("lsap: %s could not certify its answer within ε=%g (best certified gap %g)",
		e.Solver, e.Epsilon, e.Gap)
}

// NormalizedGap is the certified relative suboptimality of a matching
// with cost against the dual lower bound: (cost − bound)/(1+|bound|),
// clamped at 0. It is the quantity VerifyOptimalWithBound compares to
// its tolerance, so gap ≤ ε is exactly "VerifyOptimalWithBound passes
// at tol=ε" (given feasible potentials). A gap that is not a number
// (an overflowed cost or bound) certifies nothing and reads +Inf.
func NormalizedGap(cost, bound float64) float64 {
	g := (cost - bound) / (1 + math.Abs(bound))
	if math.IsNaN(g) {
		return math.Inf(1)
	}
	return max(g, 0)
}

// PriceDuals derives feasible minimisation potentials from auction
// column prices: v[j] = −p[j] and u[i] = min over j of C[i][j] + p[j].
// Feasibility u[i]+v[j] ≤ C[i][j] holds by construction for *any*
// finite prices — garbage prices only weaken the bound, never break
// it — so DualObjective of the result is always a sound lower bound
// on every perfect matching of c. For prices at
// ε-complementary-slackness with an assignment (the auction's phase
// invariant), the certified gap is at most n·ε.
func PriceDuals(c *Matrix, price []float64) Potentials {
	n := c.N
	p := Potentials{U: make([]float64, n), V: make([]float64, n)}
	for j, pr := range price {
		p.V[j] = -pr
	}
	for i := 0; i < n; i++ {
		best := math.Inf(1)
		for j := 0; j < n; j++ {
			if v := c.At(i, j) + price[j]; v < best {
				best = v
			}
		}
		p.U[i] = best
	}
	// C[i][j]+p[j] rounds away p's low bits at large magnitudes, so
	// u[i]+v[j] can land an ulp or two above C[i][j] when re-evaluated.
	// Nudge u down until feasibility holds under the exact float
	// comparison the verifiers use; this costs the bound a few ulps,
	// never soundness.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cij := c.At(i, j)
			for p.U[i]+p.V[j] > cij {
				p.U[i] = math.Nextafter(p.U[i], math.Inf(-1))
			}
		}
	}
	return p
}

// ClampFeasible lowers prior row potentials until (u,v) is feasible
// for c: v is kept as given and u[i] becomes
// min(prior.U[i], min over j of C[i][j] − v[j]). Any finite prior
// therefore becomes a valid dual certificate — a stale or mismatched
// warm start costs tightness, never soundness. Length mismatches and
// non-finite priors are rejected.
func ClampFeasible(c *Matrix, prior Potentials) (Potentials, error) {
	n := c.N
	if len(prior.U) != n || len(prior.V) != n {
		return Potentials{}, fmt.Errorf("lsap: prior potentials have %d/%d entries, want %d",
			len(prior.U), len(prior.V), n)
	}
	for i, u := range prior.U {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return Potentials{}, fmt.Errorf("lsap: prior u[%d] = %g, want finite", i, u)
		}
	}
	for j, v := range prior.V {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Potentials{}, fmt.Errorf("lsap: prior v[%d] = %g, want finite", j, v)
		}
	}
	out := Potentials{
		U: make([]float64, n),
		V: append([]float64(nil), prior.V...),
	}
	for i := 0; i < n; i++ {
		u := prior.U[i]
		for j := 0; j < n; j++ {
			if slack := c.At(i, j) - out.V[j]; slack < u {
				u = slack
			}
		}
		out.U[i] = u
	}
	return out, nil
}
