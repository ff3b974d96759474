// Package lsap defines the Linear Sum Assignment Problem (LSAP) used
// throughout the HunIPU reproduction: square cost matrices, assignments
// (perfect matchings), feasibility and optimality validation, and a
// brute-force oracle for tests.
//
// The LSAP, following the paper's Section II, is: given a complete
// bipartite graph G = (P, Q, E) with |P| = |Q| = n and a cost matrix
// C ∈ R^{n×n}, find the perfect matching M minimising Σ C[i][j]·M[i][j].
package lsap

import (
	"context"
	"fmt"
	"math"
)

// Assignment is a perfect matching encoded as the paper's binary matrix
// M, flattened: Assignment[i] = j means row (agent) i is matched to
// column (task) j.
type Assignment []int

// Cost returns the total cost of the assignment under matrix c.
func (a Assignment) Cost(c *Matrix) float64 {
	var sum float64
	for i, j := range a {
		sum += c.At(i, j)
	}
	return sum
}

// Validate checks that a is a perfect matching for an n×n problem: every
// row is matched to exactly one column and no column is used twice.
func (a Assignment) Validate(n int) error {
	if len(a) != n {
		return fmt.Errorf("lsap: assignment has %d rows, want %d", len(a), n)
	}
	seen := make([]bool, n)
	for i, j := range a {
		if j < 0 || j >= n {
			return fmt.Errorf("lsap: row %d assigned to column %d, out of range [0,%d)", i, j, n)
		}
		if seen[j] {
			return fmt.Errorf("lsap: column %d assigned to more than one row", j)
		}
		seen[j] = true
	}
	return nil
}

// Potentials is an LP-duality certificate: u (row potentials) and
// v (column potentials) with u[i]+v[j] ≤ C[i][j] for all edges and
// equality on matched edges prove optimality of a matching.
type Potentials struct {
	U []float64
	V []float64
}

// DualObjective is the value Σu + Σv of the dual solution. By LP weak
// duality it lower-bounds the cost of every perfect matching whenever
// the potentials are feasible (see VerifyFeasiblePotentials).
func (p Potentials) DualObjective() float64 {
	var sum float64
	for _, u := range p.U {
		sum += u
	}
	for _, v := range p.V {
		sum += v
	}
	return sum
}

// dualObjectiveAlong is the dual objective summed along the perfect
// matching a: Σᵢ u[i] + v[a[i]]. It equals Σu + Σv in exact arithmetic,
// but each of its terms is near the cost of a matched edge, so it keeps
// its precision when the potentials dwarf the costs they certify.
// There Σu + Σv cancels to rounding noise: auction prices near 1e100
// for a matching that costs 195 once summed to a bound above the
// optimum and certified a worse matching at gap 0.
func (p Potentials) dualObjectiveAlong(a Assignment) float64 {
	var sum float64
	for i, j := range a {
		sum += p.U[i] + p.V[j]
	}
	return sum
}

// VerifyFeasiblePotentials checks that every potential is finite and
// u[i]+v[j] ≤ C[i][j] + tol on every edge. Feasible potentials make
// DualObjective a certified lower bound on the cost of any perfect
// matching of c, regardless of where the potentials came from. A NaN
// compares false with everything, so it is refused up front rather
// than left to pass the edge checks.
func VerifyFeasiblePotentials(c *Matrix, p Potentials, tol float64) error {
	n := c.N
	if len(p.U) != n || len(p.V) != n {
		return fmt.Errorf("lsap: potentials have %d/%d entries, want %d", len(p.U), len(p.V), n)
	}
	for i := 0; i < n; i++ {
		if math.IsNaN(p.U[i]) || math.IsInf(p.U[i], 0) || math.IsNaN(p.V[i]) || math.IsInf(p.V[i], 0) {
			return fmt.Errorf("lsap: potentials u[%d] = %g, v[%d] = %g, want finite", i, p.U[i], i, p.V[i])
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cij := c.At(i, j)
			if p.U[i]+p.V[j] > cij+tol {
				return fmt.Errorf("lsap: potentials infeasible at (%d,%d): u+v = %g > C = %g",
					i, j, p.U[i]+p.V[j], cij)
			}
		}
	}
	return nil
}

// VerifyOptimal checks the complementary-slackness certificate: the
// potentials are feasible for every edge and tight on every matched
// edge, within tol. A nil error proves a is a minimum-cost perfect
// matching without needing an oracle.
func VerifyOptimal(c *Matrix, a Assignment, p Potentials, tol float64) error {
	n := c.N
	if err := a.Validate(n); err != nil {
		return err
	}
	if err := VerifyFeasiblePotentials(c, p, tol); err != nil {
		return err
	}
	for i, j := range a {
		cij := c.At(i, j)
		if math.Abs(p.U[i]+p.V[j]-cij) > tol {
			return fmt.Errorf("lsap: matched edge (%d,%d) not tight: u+v = %g, C = %g",
				i, j, p.U[i]+p.V[j], cij)
		}
	}
	return nil
}

// VerifyOptimalWithBound proves a is optimal using *borrowed* duals:
// the potentials may come from any solver (they need not be tight on
// a's edges, so ties between distinct optimal matchings are fine). It
// checks that a is a perfect matching, that the potentials are feasible
// — making Σu+Σv a sound lower bound by weak duality, summed along a
// to keep its precision (see dualObjectiveAlong) — and that a's cost
// meets that bound within tol·(1+|bound|).
// A nil error proves optimality of a even if the solver that produced
// the potentials returned a wrong matching.
func VerifyOptimalWithBound(c *Matrix, a Assignment, p Potentials, tol float64) error {
	if err := a.Validate(c.N); err != nil {
		return err
	}
	if err := VerifyFeasiblePotentials(c, p, tol); err != nil {
		return err
	}
	bound := p.dualObjectiveAlong(a)
	if math.IsNaN(bound) || math.IsInf(bound, 0) {
		return fmt.Errorf("lsap: certified lower bound %g is not finite", bound)
	}
	cost := a.Cost(c)
	if !(cost <= bound+tol*(1+math.Abs(bound))) {
		return fmt.Errorf("lsap: matching cost %g exceeds certified lower bound %g", cost, bound)
	}
	return nil
}

// Solution bundles a solver's result: the matching, its cost, and, when
// the solver maintains dual variables, an optimality certificate.
type Solution struct {
	Assignment Assignment
	Cost       float64
	// Potentials is non-nil when the solver can certify optimality (or,
	// for bounded-quality solvers, near-optimality; see Gap).
	Potentials *Potentials
	// Gap is the certified normalized optimality gap under Potentials:
	// NormalizedGap of Cost against the dual objective summed along
	// Assignment (Σᵢ U[i] + V[Assignment[i]]). Exact solvers leave it 0; bounded-quality solvers report the gap they attested,
	// which is at most the ε they were asked for.
	Gap float64
}

// Solver is the interface shared by every LSAP implementation in this
// repository (HunIPU on the IPU simulator, FastHA on the GPU simulator,
// and the CPU baselines).
type Solver interface {
	// Solve computes a minimum-cost perfect matching of c.
	Solve(c *Matrix) (*Solution, error)
	// Name identifies the solver in experiment output.
	Name() string
}

// ContextSolver is a Solver that additionally honours cancellation and
// deadlines: SolveContext returns promptly with ctx.Err() (matchable
// via errors.Is against context.Canceled / context.DeadlineExceeded)
// when the context ends mid-solve.
type ContextSolver interface {
	Solver
	SolveContext(ctx context.Context, c *Matrix) (*Solution, error)
}
