package cpuhung

import (
	"context"
	"math"

	"hunipu/internal/lsap"
)

// Auction is Bertsekas' auction algorithm with ε-scaling, included as an
// extra CPU baseline (the paper's related work discusses parallel
// assignment solvers; the auction method is the classic alternative to
// Hungarian-style augmentation). It solves the minimisation LSAP by
// running the standard maximisation auction on negated costs; the ε
// schedule, its certified early exit and the bounded contract are
// lsap.AuctionDriver's, and this type supplies the sequential
// (Gauss–Seidel) bidding phase.
//
// For integer-valued cost matrices the default (Epsilon = 0) result is
// exactly optimal. With Epsilon > 0 the solver runs in bounded-quality
// mode: a bounded answer is attested within ε or the solve fails with
// a typed *lsap.GapError — never silently worse than promised.
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
	owner := make([]int, n) // owner[j] = row owning column j, or -1
	d := lsap.AuctionDriver{Solver: a.Name(), Epsilon: a.Epsilon, WarmPrices: a.WarmPrices}
	return d.Solve(c, func(eps float64, b, price []float64, assigned []int) error {
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
				return err
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
			price[bestJ] = lsap.RaisePrice(price[bestJ], best-second+eps)
			if prev := owner[bestJ]; prev >= 0 {
				assigned[prev] = -1
				queue = append(queue, prev)
			}
			owner[bestJ] = i
			assigned[i] = bestJ
		}
		return nil
	})
}
