// Package gpuauction implements the paper's reference [3] —
// Vasconcelos & Rosenhahn, "Bipartite graph matching computation on
// GPU" (2009) — as a third GPU implementation on the SIMT simulator:
// Bertsekas' auction algorithm in its synchronous (Jacobi) parallel
// form, which is the classic pre-Hungarian approach to GPU assignment.
//
// Every unassigned bidder computes its best and second-best object in
// parallel (a full coalesced row scan), bids are resolved per object
// with atomic max semantics, and ε-scaling phases drive the final ε
// below lsap.AuctionDriver.Floor, 1/(n+1) for an exact target, so
// integer-valued problems finish exactly optimal.
// The structure is bulk-synchronous at kernel granularity — bid /
// resolve / count per round — so, like FastHA, it pays kernel-launch
// and host-sync overhead every round; unlike the Hungarian baselines,
// rounds are data-parallel over all unassigned bidders at once.
package gpuauction

import (
	"context"
	"fmt"
	"math"
	"time"

	"hunipu/internal/gpu"
	"hunipu/internal/lsap"
)

// Options configures the solver.
type Options struct {
	// Config is the simulated GPU; zero value means gpu.A100().
	Config gpu.Config
	// BlockThreads is the thread-block width. 0 means 256.
	BlockThreads int
	// MaxRounds bounds the bidding rounds. 0 means 200·n per phase.
	MaxRounds int64
	// Epsilon is the target normalized optimality gap (see
	// lsap.NormalizedGap). 0 runs the full ε-scaling schedule (exact
	// for integer matrices); > 0 terminates the schedule at the first
	// phase whose assignment the price-derived duals certify within
	// Epsilon, or after its first phase below lsap.AuctionDriver.Floor,
	// and the solve fails with a typed *lsap.GapError when it cannot
	// attest the answer that tightly.
	Epsilon float64
	// WarmPrices seeds the column prices (benefit space; −v from a
	// prior solve's duals). Length n, finite. Prices shift where
	// bidding starts; the certificate never depends on them.
	WarmPrices []float64
}

// Solver is the GPU auction. It implements lsap.Solver.
type Solver struct {
	opts    Options
	auction lsap.AuctionDriver
}

// New creates a solver, resolving defaults.
func New(opts Options) (*Solver, error) {
	if opts.Config.SMs == 0 {
		opts.Config = gpu.A100()
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	if opts.BlockThreads == 0 {
		opts.BlockThreads = 256
	}
	if opts.BlockThreads < 0 || opts.BlockThreads > opts.Config.MaxThreadsPerBlock {
		return nil, fmt.Errorf("gpuauction: BlockThreads = %d out of range", opts.BlockThreads)
	}
	d := lsap.AuctionDriver{Solver: "GPU-Auction", Epsilon: opts.Epsilon, WarmPrices: opts.WarmPrices}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &Solver{opts: opts, auction: d}, nil
}

// Name implements lsap.Solver.
func (s *Solver) Name() string { return "GPU-Auction" }

// Result is a solve with its modeled GPU profile.
type Result struct {
	Solution *lsap.Solution
	Stats    gpu.Stats
	Modeled  time.Duration
	Rounds   int64
}

// Solve implements lsap.Solver.
func (s *Solver) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailed(c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveContext implements lsap.ContextSolver: cancellation is checked
// at every kernel round.
func (s *Solver) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailedContext(ctx, c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveDetailed solves the LSAP and reports the modeled GPU profile.
func (s *Solver) SolveDetailed(c *lsap.Matrix) (*Result, error) {
	return s.SolveDetailedContext(context.Background(), c)
}

// SolveDetailedContext is SolveDetailed with cancellation support.
// lsap.AuctionDriver runs the ε schedule; each phase here is a
// sequence of bid/resolve kernel rounds. A failed solve still returns
// the Result of the rounds it ran, Solution nil, so a caller can
// account for their modeled time.
func (s *Solver) SolveDetailedContext(ctx context.Context, c *lsap.Matrix) (*Result, error) {
	n := c.N
	dev, err := gpu.NewDevice(s.opts.Config)
	if err != nil {
		return nil, err
	}
	owner := make([]int, n)
	bidVal := make([]float64, n)
	bidder := make([]int, n)

	threads := s.opts.BlockThreads
	grid := func(items int) int {
		b := (items + threads - 1) / threads
		if b == 0 {
			b = 1
		}
		return b
	}
	maxRounds := s.opts.MaxRounds
	if maxRounds == 0 {
		maxRounds = 200 * int64(n)
	}

	var rounds int64
	sol, err := s.auction.Solve(c, func(eps float64, benefit, price []float64, assigned []int) error {
		// Each ε-phase restarts the assignment (standard ε-scaling).
		for j := range owner {
			owner[j] = -1
			assigned[j] = -1
		}
		unassigned := n
		var phaseRounds int64
		for unassigned > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if phaseRounds++; phaseRounds > maxRounds {
				return fmt.Errorf("gpuauction: exceeded %d rounds in one phase", maxRounds)
			}
			rounds++
			// Bid kernel: every unassigned bidder scans its benefits
			// (coalesced within the warp's rows) and posts a bid on its
			// best object; bids resolve by atomic max with lowest-
			// bidder-id tie-breaking, which sequential execution makes
			// deterministic.
			for j := range bidVal {
				bidVal[j] = -1
				bidder[j] = -1
			}
			if _, err := dev.Launch("auc_bid", grid(n), threads, func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= n || assigned[i] >= 0 {
					t.Charge(1)
					return
				}
				row := benefit[i*n : (i+1)*n]
				best, second := math.Inf(-1), math.Inf(-1)
				bestJ := -1
				for j, b := range row {
					v := b - price[j]
					if v > best {
						second = best
						best = v
						bestJ = j
					} else if v > second {
						second = v
					}
				}
				if math.IsInf(second, -1) {
					second = best
				}
				bid := best - second + eps
				t.Charge(int64(2 * n))
				t.GlobalCoalesced(int64(16 * n))
				t.Atomic(bestJ) // atomic-max bid resolution
				if bid > bidVal[bestJ] || (bid == bidVal[bestJ] && (bidder[bestJ] < 0 || i < bidder[bestJ])) {
					bidVal[bestJ] = bid
					bidder[bestJ] = i
				}
			}); err != nil {
				return err
			}
			// Resolve kernel: objects accept their highest bid, evicting
			// the previous owner.
			if _, err := dev.Launch("auc_resolve", grid(n), threads, func(t *gpu.Thread) {
				j := t.GlobalID()
				if j >= n || bidder[j] < 0 {
					t.Charge(1)
					return
				}
				if prev := owner[j]; prev >= 0 {
					assigned[prev] = -1
				}
				owner[j] = bidder[j]
				assigned[bidder[j]] = j
				price[j] = lsap.RaisePrice(price[j], bidVal[j])
				t.Charge(6)
				t.GlobalRandom(24)
			}); err != nil {
				return err
			}
			// The host re-counts the unassigned set; at the phase's end
			// the prices are host-resident for the driver's certificate.
			dev.HostSync()
			unassigned = 0
			for _, j := range assigned {
				if j < 0 {
					unassigned++
				}
			}
		}
		return nil
	})
	return &Result{Solution: sol, Stats: dev.Stats(), Modeled: dev.ModeledTime(), Rounds: rounds}, err
}
