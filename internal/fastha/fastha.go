// Package fastha implements the paper's GPU baseline: a block-
// distributed CUDA-style Hungarian algorithm in the spirit of Lopes et
// al. 2019 ("Fast block distributed CUDA implementation of the
// Hungarian algorithm"), executed on the SIMT simulator in package
// gpu.
//
// The implementation is a faithful *algorithmic* port: the same
// Munkres phases as HunIPU, but structured the way GPU Hungarian
// implementations are — a host driver loop issuing one kernel grid per
// phase, full-row scans (no compressed zero storage), atomics to claim
// columns, and a single-threaded augmenting-path kernel, because path
// traversal does not parallelise on SIMT hardware. Those structural
// choices are exactly what the paper's evaluation charges against
// FastHA: per-iteration kernel-launch overhead, warp divergence on
// variable-length zero scans, and uncoalesced cover lookups.
//
// Like the published FastHA, the solver only accepts power-of-two
// matrix sizes; SolvePadded zero-pads arbitrary sizes the way the
// paper pads its graph-alignment similarity matrices.
package fastha

import (
	"context"
	"fmt"
	"math"
	"time"

	"hunipu/internal/faultinject"
	"hunipu/internal/gpu"
	"hunipu/internal/lsap"
)

// Options configures the FastHA solver.
type Options struct {
	// Config is the simulated GPU; zero value means gpu.A100().
	Config gpu.Config
	// BlockThreads is the thread-block width for matrix kernels.
	// 0 means 256.
	BlockThreads int
	// MaxIterations bounds the outer loop as a runaway backstop.
	// 0 means 50·n² per solve.
	MaxIterations int64
	// Fault installs a deterministic fault injector on the simulated
	// GPU; injected faults surface as typed *faultinject.FaultError
	// (FastHA is host-driven with mutable global state, so it has no
	// checkpoint recovery — callers degrade to another device instead).
	Fault faultinject.Injector
}

// Solver is the FastHA GPU baseline. It implements lsap.Solver.
type Solver struct {
	opts Options
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
		return nil, fmt.Errorf("fastha: BlockThreads = %d out of range", opts.BlockThreads)
	}
	return &Solver{opts: opts}, nil
}

// Name implements lsap.Solver.
func (s *Solver) Name() string { return "FastHA" }

// Result is a solve with its modeled GPU profile. A solve that fails
// after reaching the device returns its Result with the error, Solution
// nil, so a caller can account for the device time it spent.
type Result struct {
	Solution *lsap.Solution
	Stats    gpu.Stats
	Modeled  time.Duration
}

// Solve implements lsap.Solver. The matrix size must be a power of
// two, matching the published implementation's restriction.
func (s *Solver) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailed(c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveContext implements lsap.ContextSolver: cancellation is checked
// between kernel launches, where the host driver sits anyway.
func (s *Solver) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailedContext(ctx, c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolvePadded pads an arbitrary-size matrix to the next power of two
// (the published FastHA's size restriction), solves, and returns the
// assignment truncated to the original rows. The paper pads the
// *similarity* matrix with zero rows and columns before converting the
// maximisation to a minimisation; in cost space that makes every
// padding entry strictly more expensive than any real entry, so here
// padding uses max+1. Any optimum of the padded problem then matches
// padding rows exclusively to padding columns, and its restriction to
// the real block is an optimum of the original problem.
func (s *Solver) SolvePadded(c *lsap.Matrix) (*Result, error) {
	return s.SolvePaddedContext(context.Background(), c)
}

// SolvePaddedContext is SolvePadded with cancellation support.
func (s *Solver) SolvePaddedContext(ctx context.Context, c *lsap.Matrix) (*Result, error) {
	n := c.N
	if n == lsap.NextPow2(n) {
		return s.SolveDetailedContext(ctx, c)
	}
	pad := 1.0
	for _, v := range c.Data {
		if v+1 > pad {
			pad = v + 1
		}
	}
	padded := c.PadToPow2(pad)
	r, err := s.SolveDetailedContext(ctx, padded)
	if err != nil {
		return r, err
	}
	a := lsap.Unpad(r.Solution.Assignment, n)
	for i, j := range a {
		if j < 0 {
			r.Solution = nil
			return r, fmt.Errorf("fastha: padded solve matched real row %d to a padding column", i)
		}
	}
	r.Solution = &lsap.Solution{Assignment: a, Cost: a.Cost(c)}
	return r, nil
}

// state is the "device global memory" of one solve.
type state struct {
	n        int
	slack    []float64
	rowStar  []int
	colStar  []int
	rowPrime []int
	rowCover []int
	colCover []int

	status   []int // per-row zero status, as in Munkres step 4
	uncovCol []int
	partials []float64 // scratch for two-stage reductions
	partIdx  []int
}

// SolveDetailed solves the LSAP and reports the modeled GPU profile.
func (s *Solver) SolveDetailed(c *lsap.Matrix) (*Result, error) {
	return s.SolveDetailedContext(context.Background(), c)
}

// SolveDetailedContext is SolveDetailed with cancellation support.
func (s *Solver) SolveDetailedContext(ctx context.Context, c *lsap.Matrix) (*Result, error) {
	n := c.N
	if n == 0 {
		return &Result{Solution: &lsap.Solution{Assignment: lsap.Assignment{}}}, nil
	}
	if n != lsap.NextPow2(n) {
		return nil, fmt.Errorf("fastha: matrix size %d is not a power of two (use SolvePadded)", n)
	}
	for _, v := range c.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("fastha: cost matrix must be finite")
		}
	}
	dev, err := gpu.NewDevice(s.opts.Config)
	if err != nil {
		return nil, err
	}
	if s.opts.Fault != nil {
		dev.SetInjector(s.opts.Fault)
	}
	st := &state{
		n:        n,
		slack:    append([]float64(nil), c.Data...),
		rowStar:  filled(n, -1),
		colStar:  filled(n, -1),
		rowPrime: filled(n, -1),
		rowCover: make([]int, n),
		colCover: make([]int, n),
		status:   make([]int, n),
		uncovCol: make([]int, n),
		partials: make([]float64, n),
		partIdx:  make([]int, n),
	}
	d := &driver{dev: dev, st: st, threads: s.opts.BlockThreads}

	maxIter := s.opts.MaxIterations
	if maxIter == 0 {
		maxIter = 50 * int64(n) * int64(n)
	}
	err = d.run(ctx, maxIter)
	res := &Result{Stats: dev.Stats(), Modeled: dev.ModeledTime()}
	if err != nil {
		if fe, ok := faultinject.AsFault(err); ok {
			return res, fe
		}
		return res, err
	}

	a := make(lsap.Assignment, n)
	copy(a, st.rowStar)
	if err := a.Validate(n); err != nil {
		return res, fmt.Errorf("fastha: produced invalid matching: %w", err)
	}
	res.Solution = &lsap.Solution{Assignment: a, Cost: a.Cost(c)}
	return res, nil
}

func filled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}
