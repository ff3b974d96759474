package hunipu

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"hunipu/internal/lsap"
)

// Quality selects where a solve sits on the degradation ladder
// exact → bounded(ε) → shed. The zero value is Exact().
//
// Exact solves return the optimal assignment. Bounded(ε) solves may
// stop early and return an assignment whose cost is *certified* within
// a normalized gap ε of optimal: the solver derives feasible dual
// potentials, checks lsap.VerifyOptimalWithBound against them, and
// refuses with a typed *lsap.GapError when it cannot attest the answer
// that tightly — a bounded answer is never silently worse than
// promised. The solve then runs at Exact on the same device before
// any fallback device, and Result.Quality reports Exact. Bounded(0)
// degenerates to the exact contract.
type Quality struct {
	bounded bool
	eps     float64
}

// Exact requests the optimal assignment (the default).
func Exact() Quality { return Quality{} }

// Bounded requests an answer certified within normalized gap eps of
// optimal (see lsap.NormalizedGap). eps must be finite and ≥ 0;
// validation happens at Solve time so option application stays
// error-free. Bounded(0) is the exact contract.
func Bounded(eps float64) Quality { return Quality{bounded: true, eps: eps} }

// IsBounded reports whether q carries an ε target. Note Bounded(0)
// is bounded by construction but served by the exact path.
func (q Quality) IsBounded() bool { return q.bounded }

// Epsilon returns the ε target (0 for Exact).
func (q Quality) Epsilon() float64 { return q.eps }

// String implements fmt.Stringer; the output round-trips through
// ParseQuality.
func (q Quality) String() string {
	if !q.bounded {
		return "exact"
	}
	return "bounded(" + strconv.FormatFloat(q.eps, 'g', -1, 64) + ")"
}

// valid reports whether the ε target is usable.
func (q Quality) valid() bool {
	return !math.IsNaN(q.eps) && !math.IsInf(q.eps, 0) && q.eps >= 0
}

// ParseQuality maps "exact" or "bounded(ε)" — e.g. "bounded(0.05)" —
// to its Quality. Malformed specs are rejected with an error wrapping
// ErrInvalidOption. The grammar matches Quality.String, so values
// round-trip; it is also what hunipud's -quality flag and the serving
// API's quality field accept.
func ParseQuality(s string) (Quality, error) {
	switch t := strings.TrimSpace(s); {
	case t == "exact":
		return Exact(), nil
	case strings.HasPrefix(t, "bounded(") && strings.HasSuffix(t, ")"):
		eps, err := strconv.ParseFloat(t[len("bounded("):len(t)-1], 64)
		if err != nil || math.IsNaN(eps) || math.IsInf(eps, 0) || eps < 0 {
			return Quality{}, fmt.Errorf("hunipu: quality %q: ε must be a finite number ≥ 0: %w", s, ErrInvalidOption)
		}
		return Bounded(eps), nil
	default:
		return Quality{}, fmt.Errorf("hunipu: quality %q, want \"exact\" or \"bounded(ε)\": %w", s, ErrInvalidOption)
	}
}

// WithQuality selects the solve's quality tier. Bounded(ε) with ε > 0
// routes to the ε-scaling auction port for the selected device
// (IPU/GPU/CPU all support it) with early termination at the first
// certified phase; Exact and Bounded(0) keep today's exact solvers.
// Result.Quality and Result.Gap report what was actually delivered.
//
// Bounded quality composes with WithFallback (each device attempt
// honours the same ε) but not with WithShards, which is rejected with
// an error wrapping ErrInvalidOption. Guard policies are ignored on
// the bounded path: the ε certificate checked against the original
// cost matrix *is* the output attestation there.
func WithQuality(q Quality) Option { return func(c *config) { c.quality = q } }

// Duals is a dual-potential certificate in the public representation:
// U has one entry per row, V one per column, of the *internal
// minimisation form* of the problem (after any Maximize conversion).
// Its only intended round-trip is back into WithWarmStart.
type Duals struct {
	U []float64
	V []float64
}

// WithWarmStart seeds the solve with dual potentials from a prior
// solve on a similar matrix — typically Result.Duals of the previous
// frame in a tracking or streaming workload. u needs one entry per
// row and v one per column; all entries must be finite. The priors
// are clamped to feasibility for the new matrix first (see
// lsap.ClampFeasible), so an arbitrarily stale prior can cost work
// but never correctness. Exact solves consume the prior by dual
// pre-reduction of the cost matrix; bounded solves seed the auction's
// price vector with −v.
func WithWarmStart(u, v []float64) Option {
	return func(c *config) {
		c.warmU = append([]float64(nil), u...)
		c.warmV = append([]float64(nil), v...)
		c.warmSet = true
	}
}

// prepWarm validates the warm-start priors against the squared matrix
// m (rows×cols real, padded to n×n) and returns them clamped to
// feasibility, padded with zero potentials on dummy rows/columns.
func (c *config) prepWarm(m *lsap.Matrix, rows, cols int) (*lsap.Potentials, error) {
	if len(c.warmU) != rows || len(c.warmV) != cols {
		return nil, fmt.Errorf("hunipu: WithWarmStart: got %d×%d potentials, want %d×%d: %w",
			len(c.warmU), len(c.warmV), rows, cols, ErrInvalidOption)
	}
	n := m.N
	prior := lsap.Potentials{U: make([]float64, n), V: make([]float64, n)}
	copy(prior.U, c.warmU)
	copy(prior.V, c.warmV)
	p, err := lsap.ClampFeasible(m, prior)
	if err != nil {
		return nil, fmt.Errorf("hunipu: WithWarmStart: %v: %w", err, ErrInvalidOption)
	}
	return &p, nil
}

// reduceMatrix applies dual pre-reduction: c′[i][j] = c[i][j] − u[i]
// − v[j], the exact path's way of consuming a warm start. With p
// feasible every entry is ≥ 0 up to rounding (clamped), edges tight
// under the prior become zeros, and — the sum u+v being constant over
// perfect matchings — the reduced problem has the same optimal
// assignments as the original.
func reduceMatrix(m *lsap.Matrix, p lsap.Potentials) *lsap.Matrix {
	n := m.N
	r := lsap.NewMatrix(n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < n; j++ {
			v := row[j] - p.U[i] - p.V[j]
			if v < 0 {
				v = 0
			}
			r.Set(i, j, v)
		}
	}
	return r
}
