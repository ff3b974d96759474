package lsap

import (
	"fmt"
	"math"
	"slices"
)

// AuctionEpsScale is the factor every ε-scaling auction (CPU, IPU and
// GPU) divides ε by between phases.
const AuctionEpsScale = 4

// AuctionDriver is the host side of Bertsekas' ε-scaling auction that
// the CPU, GPU and IPU ports share: input validation, the benefit
// transform, the ε schedule with its certified early exit, and the
// final certificate. A port supplies only its bidding kernel.
//
// The auction solves the minimisation LSAP as a maximisation over
// benefits b[i][j] = max C − C[i][j] ≥ 0. Every phase ends with all
// rows assigned at ε-complementary slackness, so the price-derived
// duals (see PriceDuals) certify the phase's assignment within n·ε.
// Every schedule ends after its first phase below Floor; with Epsilon
// > 0 it may stop earlier, at the first phase certified within
// Epsilon. With Epsilon = 0 the floor is 1/(n+1), which is exactly
// optimal on integer costs. A bounded answer is attested within
// Epsilon by VerifyOptimalWithBound or withheld as a *GapError, and
// no port re-runs a schedule at a tighter floor. Floor and StartEps
// are the schedule's two ends, shared by the host schedule (Solve)
// and the IPU port's on-device one.
type AuctionDriver struct {
	// Solver names the port in errors and in *GapError.
	Solver string
	// Epsilon is the target normalized optimality gap (see
	// NormalizedGap). 0 runs the full schedule.
	Epsilon float64
	// WarmPrices seeds the column prices (benefit space; −v[j] of a
	// prior solve's duals is the natural prior). Length n, finite. The
	// certificate never depends on them, so a stale prior costs rounds,
	// not soundness. Nil starts every price at 0.
	WarmPrices []float64
}

// RaisePrice returns price p raised by a winning bid. A bid below half
// an ulp of p rounds away, which would leave the price where it was and
// the auction bidding forever; the price then rises by one ulp instead.
// Every port raises its prices here.
func RaisePrice(p, bid float64) float64 {
	if q := p + bid; q != p {
		return q
	}
	return math.Nextafter(p, math.Inf(1))
}

// AuctionPhase runs one bidding phase at ε: starting from price, it
// bids until every row holds a column, raising price in place and
// writing each row's column to assigned. A returned error ends the
// solve and reaches the caller unwrapped, so ctx.Err() stays
// comparable.
type AuctionPhase func(eps float64, benefit, price []float64, assigned []int) error

// Validate rejects an Epsilon that is negative or not finite.
func (d AuctionDriver) Validate() error {
	if math.IsNaN(d.Epsilon) || math.IsInf(d.Epsilon, 0) || d.Epsilon < 0 {
		return fmt.Errorf("lsap: %s Epsilon = %g, want finite ≥ 0", d.Solver, d.Epsilon)
	}
	return nil
}

// Prepare validates Epsilon, c and the warm prices, and returns the
// row-major benefit matrix, its largest entry, and the starting prices.
// Costs must be finite, and their range must not overflow float64: an
// infinite largest benefit leaves no ε schedule to run.
func (d AuctionDriver) Prepare(c *Matrix) (benefit []float64, maxB float64, price []float64, err error) {
	if err := d.Validate(); err != nil {
		return nil, 0, nil, err
	}
	maxC := math.Inf(-1)
	for _, v := range c.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, 0, nil, fmt.Errorf("lsap: %s needs finite costs", d.Solver)
		}
		if v > maxC {
			maxC = v
		}
	}
	price = make([]float64, c.N)
	if d.WarmPrices != nil {
		if len(d.WarmPrices) != c.N {
			return nil, 0, nil, fmt.Errorf("lsap: %s warm prices have %d entries, want %d", d.Solver, len(d.WarmPrices), c.N)
		}
		for j, p := range d.WarmPrices {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				return nil, 0, nil, fmt.Errorf("lsap: %s warm price[%d] = %g, want finite", d.Solver, j, p)
			}
		}
		copy(price, d.WarmPrices)
	}
	benefit = make([]float64, len(c.Data))
	for i, v := range c.Data {
		benefit[i] = maxC - v
		if benefit[i] > maxB {
			maxB = benefit[i]
		}
	}
	if math.IsInf(maxB, 1) {
		return nil, 0, nil, fmt.Errorf("lsap: %s cost range overflows float64", d.Solver)
	}
	return benefit, maxB, price, nil
}

// Floor is the ε below which the schedule's last phase runs, the one
// end of every port's schedule; maxB is the largest benefit, as
// Prepare returns it. ε-complementary slackness at floor e leaves an
// absolute gap of at most n·e, and the certified gap is normalized by
// 1+|bound|, so a bounded target's floor is Epsilon·(1+lb)/n, with lb
// the sum of row minima clamped at 0 (a cheap lower bound on the
// optimum that the dual bound tracks): it lands the normalized gap near
// Epsilon. A phase below 1/(n+1) is already exact on an integer matrix,
// so there the floor is raised to 1/(n+1), and an exact target
// (Epsilon = 0) ends at 1/(n+1) on any matrix. On a real-valued matrix
// the floor is held at maxB·2⁻⁵², the resolution of prices of maxB's
// magnitude: a bid below it rounds to one ulp (RaisePrice), so finer
// phases only repeat one another. A zero range keeps the floor at the
// smallest positive float64, so the schedule still ends. The floor only
// places the schedule: the certificate decides every bounded answer.
func (d AuctionDriver) Floor(c *Matrix, maxB float64) float64 {
	n := c.N
	exact := 1.0 / float64(n+1)
	if d.Epsilon <= 0 || n == 0 {
		return exact
	}
	lb, integer := 0.0, true
	for i := 0; i < n; i++ {
		row := c.Row(i)
		min := row[0]
		for _, v := range row {
			if v < min {
				min = v
			}
			integer = integer && v == math.Trunc(v)
		}
		lb += min
	}
	floor := d.Epsilon * (1 + max(lb, 0)) / float64(n)
	if integer {
		return max(floor, exact)
	}
	return max(floor, maxB*0x1p-52, math.SmallestNonzeroFloat64)
}

// StartEps is the ε of the schedule's first phase. A cold solve starts
// at half the largest benefit maxB (1 when maxB ≤ 0): prices far from
// equilibrium need the coarse phases. A warm-started bounded solve
// (WarmPrices set, Epsilon > 0) starts near equilibrium and skips
// them: the start is divided by AuctionEpsScale for as long as the
// quotient stays at or above floor. A schedule that runs to its first
// phase below floor, as the IPU port's always does, then runs only the
// cold schedule's last two phases and ends at the same final ε, so its
// certificate is just as strong.
//
// Warm prices spread wider than maxB start cold: every phase ends with
// each column held at ε-complementary slackness, which keeps any two
// prices within maxB+ε of each other, so such a prior is no phase's
// end state for this matrix and bidding it down at a fine ε would cost
// far more rounds than the coarse phases.
func (d AuctionDriver) StartEps(maxB, floor float64) float64 {
	eps := maxB / 2
	if eps <= 0 {
		return 1
	}
	if len(d.WarmPrices) == 0 || d.Epsilon <= 0 || floor <= 0 ||
		slices.Max(d.WarmPrices)-slices.Min(d.WarmPrices) > maxB {
		return eps
	}
	for eps/AuctionEpsScale >= floor {
		eps /= AuctionEpsScale
	}
	return eps
}

// Solve runs the host ε schedule over phase: ε starts at StartEps and
// is divided by AuctionEpsScale after every phase until a phase is
// certified within Epsilon (when > 0) or has run below Floor. The last
// phase's assignment is returned with its certificate, or a *GapError
// when a bounded target is not attested. An exact target certifies
// only its last phase, the one it returns.
func (d AuctionDriver) Solve(c *Matrix, phase AuctionPhase) (*Solution, error) {
	n := c.N
	if n == 0 {
		return &Solution{Assignment: Assignment{}}, nil
	}
	benefit, maxB, price, err := d.Prepare(c)
	if err != nil {
		return nil, err
	}
	floor := d.Floor(c, maxB)
	eps := d.StartEps(maxB, floor)
	assigned := make(Assignment, n)
	for {
		if err := phase(eps, benefit, price, assigned); err != nil {
			return nil, err
		}
		if last := eps < floor; last || d.Epsilon > 0 {
			sol, err := d.certificate(c, assigned, price)
			if err != nil {
				return nil, err
			}
			if last || sol.Gap <= d.Epsilon {
				return d.attest(c, sol)
			}
		}
		eps /= AuctionEpsScale
	}
}

// Certify attaches the price-derived certificate to a complete
// assignment: the solution with its duals and normalized gap, or, for
// a bounded target, a *GapError when the duals do not attest it within
// Epsilon.
func (d AuctionDriver) Certify(c *Matrix, a Assignment, price []float64) (*Solution, error) {
	sol, err := d.certificate(c, a, price)
	if err != nil {
		return nil, err
	}
	return d.attest(c, sol)
}

// certificate checks that a is a perfect matching and derives the
// feasible duals of price with the gap they certify.
func (d AuctionDriver) certificate(c *Matrix, a Assignment, price []float64) (*Solution, error) {
	if err := a.Validate(c.N); err != nil {
		return nil, fmt.Errorf("lsap: %s produced an invalid matching: %w", d.Solver, err)
	}
	pots := PriceDuals(c, price)
	cost := a.Cost(c)
	return &Solution{Assignment: a, Cost: cost, Potentials: &pots, Gap: NormalizedGap(cost, pots.dualObjectiveAlong(a))}, nil
}

// attest enforces the bounded contract: within Epsilon or typed failure.
func (d AuctionDriver) attest(c *Matrix, sol *Solution) (*Solution, error) {
	if d.Epsilon > 0 {
		if err := VerifyOptimalWithBound(c, sol.Assignment, *sol.Potentials, d.Epsilon); err != nil {
			return nil, &GapError{Solver: d.Solver, Epsilon: d.Epsilon, Gap: sol.Gap}
		}
	}
	return sol, nil
}
