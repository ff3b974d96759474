package cpuhung

import (
	"context"
	"fmt"
	"math"

	"hunipu/internal/lsap"
)

// Auction is Bertsekas' auction algorithm with ε-scaling, included as an
// extra CPU baseline (the paper's related work discusses parallel
// assignment solvers; the auction method is the classic alternative to
// Hungarian-style augmentation). It solves the minimisation LSAP by
// running the standard maximisation auction on negated costs.
//
// For integer-valued cost matrices the default (Epsilon = 0) result is
// exactly optimal: the final ε is driven below 1/(n+1), which for
// integer benefits guarantees optimality. With Epsilon > 0 the solver
// runs in bounded-quality mode: every ε-phase ends with feasible dual
// potentials derived from the prices (u[i] = min_j C[i][j]+p[j],
// v[j] = −p[j]), and the scaling schedule terminates as soon as the
// phase's assignment is certified within the requested normalized gap
// by lsap.VerifyOptimalWithBound. A bounded answer is attested within
// ε or the solve fails with a typed *lsap.GapError — never silently
// worse than promised.
type Auction struct {
	// Epsilon is the target normalized optimality gap (see
	// lsap.NormalizedGap). 0 runs the full scaling schedule; > 0 allows
	// early termination at the first phase certified within Epsilon.
	Epsilon float64
	// WarmPrices seeds the column prices (benefit space; −v[j] from a
	// prior solve's duals is the natural prior). Prices only shift
	// where bidding starts — the certificate never depends on them, so
	// a stale prior costs rounds, not correctness. Must be length n and
	// finite when set.
	WarmPrices []float64
}

// Name implements lsap.Solver.
func (Auction) Name() string { return "CPU-Auction" }

// Solve implements lsap.Solver.
func (a Auction) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	return a.SolveContext(context.Background(), c)
}

// SolveContext implements lsap.ContextSolver: cancellation is checked
// once per bidder round.
func (a Auction) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	n := c.N
	if n == 0 {
		return &lsap.Solution{Assignment: lsap.Assignment{}}, nil
	}
	if math.IsNaN(a.Epsilon) || math.IsInf(a.Epsilon, 0) || a.Epsilon < 0 {
		return nil, fmt.Errorf("cpuhung: auction Epsilon = %g, want finite ≥ 0", a.Epsilon)
	}

	// Benefits: b[i][j] = maxC − C[i][j] ≥ 0 (maximisation form).
	maxC := math.Inf(-1)
	for _, v := range c.Data {
		if v == lsap.Forbidden {
			return nil, fmt.Errorf("cpuhung: auction does not support forbidden edges")
		}
		if v > maxC {
			maxC = v
		}
	}
	b := make([]float64, n*n)
	var maxB float64
	for i, v := range c.Data {
		b[i] = maxC - v
		if b[i] > maxB {
			maxB = b[i]
		}
	}

	price := make([]float64, n)
	if a.WarmPrices != nil {
		if len(a.WarmPrices) != n {
			return nil, fmt.Errorf("cpuhung: auction warm prices have %d entries, want %d", len(a.WarmPrices), n)
		}
		for j, p := range a.WarmPrices {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, fmt.Errorf("cpuhung: auction warm price[%d] = %g, want finite", j, p)
			}
			price[j] = p
		}
	}
	owner := make([]int, n)    // owner[j] = row owning column j, or -1
	assigned := make([]int, n) // assigned[i] = column owned by row i, or -1

	eps := maxB / 2
	if eps <= 0 {
		eps = 1
	}
	epsMin := 1.0 / float64(n+1)

	out := make(lsap.Assignment, n)
	var pots lsap.Potentials
	gap := math.Inf(1)
	for {
		for j := range owner {
			owner[j] = -1
		}
		for i := range assigned {
			assigned[i] = -1
		}
		queue := make([]int, n)
		for i := range queue {
			queue[i] = i
		}
		for len(queue) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			i := queue[len(queue)-1]
			queue = queue[:len(queue)-1]

			// Find best and second-best net value for bidder i.
			best, second := math.Inf(-1), math.Inf(-1)
			bestJ := -1
			row := b[i*n : (i+1)*n]
			for j, bij := range row {
				v := bij - price[j]
				if v > best {
					second = best
					best = v
					bestJ = j
				} else if v > second {
					second = v
				}
			}
			if math.IsInf(second, -1) {
				second = best // n == 1
			}
			bid := best - second + eps
			price[bestJ] += bid
			if prev := owner[bestJ]; prev >= 0 {
				assigned[prev] = -1
				queue = append(queue, prev)
			}
			owner[bestJ] = i
			assigned[i] = bestJ
		}
		// Phase complete: every bidder holds a column at ε-complementary
		// slackness, so the price-derived duals certify the assignment
		// within n·ε. In bounded mode that check is the early exit.
		copy(out, assigned)
		pots = lsap.PriceDuals(c, price)
		gap = lsap.NormalizedGap(out.Cost(c), pots.DualObjective())
		if a.Epsilon > 0 && gap <= a.Epsilon {
			break
		}
		if eps < epsMin {
			break
		}
		eps /= lsap.AuctionEpsScale
	}

	if err := out.Validate(n); err != nil {
		return nil, fmt.Errorf("cpuhung: auction produced invalid matching: %w", err)
	}
	if a.Epsilon > 0 {
		// The bounded contract: attested within ε or a typed failure.
		if err := lsap.VerifyOptimalWithBound(c, out, pots, a.Epsilon); err != nil {
			return nil, &lsap.GapError{Solver: "CPU-Auction", Epsilon: a.Epsilon, Gap: gap}
		}
	}
	return &lsap.Solution{Assignment: out, Cost: out.Cost(c), Potentials: &pots, Gap: gap}, nil
}
