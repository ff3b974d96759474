package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// Solver is HunIPU: the paper's IPU-optimised Hungarian algorithm,
// executed on the simulated device. It implements lsap.Solver.
//
// Costs must be finite; integer-valued matrices (the paper's synthetic
// workloads and the quantised similarity matrices of the graph-
// alignment use case) are solved exactly, since every slack update is
// an addition or subtraction of existing values.
type Solver struct {
	opts Options

	// Compiled programs come from a fingerprint-keyed cache (see
	// progcache.go): applications that solve many same-shape instances
	// (the paper's shape-matching motivation runs the algorithm
	// "hundreds of times", and a daemon serves repeated shapes forever)
	// compile once per shape — across Solver instances when they share
	// a cache — and pay only upload + run + readback afterwards.
	cache *ProgramCache
}

// New creates a solver, resolving option defaults. Solvers with
// Options.Cache unset share the process-wide DefaultCache.
func New(opts Options) (*Solver, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cache := o.Cache
	if cache == nil {
		cache = defaultCache
	}
	return &Solver{opts: o, cache: cache}, nil
}

// Name implements lsap.Solver.
func (s *Solver) Name() string {
	switch {
	case s.opts.MinIPUs > 0:
		return fmt.Sprintf("HunIPU-shard%d", s.opts.Config.IPUs)
	case s.opts.Use2D:
		return "HunIPU-2D"
	case s.opts.DisableCompression:
		return "HunIPU-nocompress"
	default:
		return "HunIPU"
	}
}

// Options returns the resolved options.
func (s *Solver) Options() Options { return s.opts }

// Result is a solve with its modeled device profile. A solve that
// fails after reaching the device returns its Result with the error,
// Solution nil: Stats, Modeled, MaxTileBytes, Recovery, Fabric and
// Profile then report what the failed run spent.
type Result struct {
	Solution *lsap.Solution
	// Stats is the device profile of the solve (host transfers and
	// graph compilation excluded, matching the paper's methodology).
	Stats ipu.Stats
	// Modeled is the simulated wall time of the solve.
	Modeled time.Duration
	// MaxTileBytes is the most loaded tile's SRAM footprint.
	MaxTileBytes int64
	// CompileHost is the real host time this solve spent acquiring its
	// compiled program: graph construction + verification + compilation
	// on a cache miss (the paper compiles once per matrix size),
	// near-zero on a warm-cache hit.
	CompileHost time.Duration
	// Cached is true when the solve reused an already-compiled program
	// and therefore skipped construction, verification, and compilation
	// entirely.
	Cached bool
	// Profile is this solve's per-compute-set breakdown (nil unless
	// Options.Profile is set), sorted by descending compute cycles. A
	// solve that moved onto a survivor program reports the last one's.
	Profile []poplar.CSProfile
	// Recovery reports what the fault-recovery machinery did during the
	// solve: transient faults survived, checkpoints saved and restored,
	// guard trips, the terminal one of a failed solve included.
	Recovery poplar.RunReport
	// Fabric reports chip losses when Options.MinIPUs is set (nil
	// otherwise).
	Fabric *Fabric
}

// Solve implements lsap.Solver.
func (s *Solver) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailed(c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveContext implements lsap.ContextSolver: the solve is checked for
// cancellation and deadline expiry at every BSP superstep.
func (s *Solver) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailedContext(ctx, c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveDetailed solves the LSAP and reports the modeled IPU profile.
func (s *Solver) SolveDetailed(c *lsap.Matrix) (*Result, error) {
	return s.SolveDetailedContext(context.Background(), c)
}

// SolveDetailedContext is SolveDetailed with cancellation support.
func (s *Solver) SolveDetailedContext(ctx context.Context, c *lsap.Matrix) (*Result, error) {
	n := c.N
	var fab *Fabric
	if s.opts.MinIPUs > 0 {
		fab = newFabric(s.opts.Config.IPUs)
	}
	if n == 0 {
		return &Result{Solution: &lsap.Solution{Assignment: lsap.Assignment{}}, Fabric: fab}, nil
	}
	for _, v := range c.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("core: cost matrix must be finite")
		}
	}

	compileStart := time.Now()
	cp, built, err := s.acquire(n, 0)
	if err != nil {
		return nil, err
	}
	// Runs serialize per program: tensor data is program-resident. A
	// multi-chip solve may end on a different program than it started
	// on (see runFabric), so the release reads cp when the solve ends.
	cp.mu.Lock()
	defer func() {
		// The pristine input copy and the trace are instance state:
		// release them when the solve ends so a warm cached program never
		// pins a matrix-sized buffer (see the heap-retention regression
		// test) or a timeline.
		cp.b.input = nil
		cp.eng.SetTrace(false)
		cp.mu.Unlock()
	}()
	compileTime := time.Since(compileStart)

	if cp.dirty {
		// The previous run on this program failed mid-solve; restore the
		// all-zero cold-engine state instead of recompiling.
		cp.eng.ZeroState()
		cp.dirty = false
	}
	cp.eng.ResetReport()
	cp.eng.SetTrace(s.opts.TraceWriter != nil)
	// The clock reset precedes the host write so injection-schedule
	// superstep coordinates are relative to the solve, every solve.
	cp.dev.ResetClock()
	//hunipulint:ignore lockdiscipline cp.mu intentionally serializes whole solves; tensor data is program-resident and the simulated engine takes no locks
	if err := cp.eng.HostWrite(cp.b.slack, c.Data); err != nil {
		return failure{s: s, cp: cp, fab: fab}.with(fmt.Errorf("core: input transfer failed: %w", err))
	}
	if s.opts.Guard != poplar.GuardOff {
		// Pristine host-side copy for the invariant probes and the final
		// attestation; must be in place before execution starts.
		cp.b.input = append([]float64(nil), c.Data...)
		cp.b.guardTol = guardTolerance(c.Data, s.opts.Epsilon)
	}
	var left poplar.RunReport
	if fab != nil {
		//hunipulint:ignore lockdiscipline a chip loss waits on the survivor program's build while holding the lost program; builds take no program locks and programs are locked in growing lost-set order
		cp, left, err = s.runFabric(ctx, c, cp, fab)
	} else {
		//hunipulint:ignore lockdiscipline the run loop is the critical section cp.mu exists to guard; it simulates the device and takes no locks
		err = cp.eng.RunContext(ctx)
	}
	b, eng, dev := cp.b, cp.eng, cp.dev
	fail := failure{s: s, cp: cp, fab: fab, left: left}
	if err != nil {
		if _, ok := AsFabric(err); ok {
			return fail.with(err)
		}
		if ce, ok := faultinject.AsCorruption(err); ok {
			return fail.with(ce)
		}
		if fe, ok := faultinject.AsFault(err); ok {
			return fail.with(fe)
		}
		if ctx.Err() != nil {
			return fail.with(ctx.Err())
		}
		return fail.with(fmt.Errorf("core: execution failed: %w", err))
	}
	if b.pathErr.ScalarValue() != 0 {
		err := fmt.Errorf("core: internal invariant violated during path augmentation")
		if s.opts.Guard != poplar.GuardOff {
			return fail.with(eng.NewCorruptionError("structural:path", err))
		}
		return fail.with(err)
	}

	//hunipulint:ignore lockdiscipline reads program-resident tensors that cp.mu guards; lock-free engine, no re-entry possible
	stars, err := eng.HostRead(b.rowStar)
	if err != nil {
		if fab != nil {
			fab.translate(err)
		}
		return fail.with(fmt.Errorf("core: result transfer failed: %w", err))
	}
	a := make(lsap.Assignment, n)
	for i, v := range stars {
		a[i] = int(v)
	}
	if err := a.Validate(n); err != nil {
		err = fmt.Errorf("core: produced invalid matching: %w", err)
		if s.opts.Guard != poplar.GuardOff {
			return fail.with(eng.NewCorruptionError("structural:matching", err))
		}
		return fail.with(err)
	}
	// Mandatory output attestation (guard mode): certify the matching
	// against the pristine input with the dual potentials before it can
	// be returned — a wrong answer becomes a typed *CorruptionError, not
	// a silent result.
	var pots *lsap.Potentials
	if s.opts.Guard != poplar.GuardOff {
		//hunipulint:ignore lockdiscipline attestation reads engine state under the same per-program serialization; lock-free engine
		p, err := b.attest(eng, dev, c, a)
		if err != nil {
			return fail.with(eng.NewCorruptionError("attestation", fmt.Errorf("core: output attestation failed: %w", err)))
		}
		pots = p
	}
	if s.opts.TraceWriter != nil {
		//hunipulint:ignore lockdiscipline trace export snapshots engine state under the same per-program serialization; the time formatter cannot re-enter cp.mu
		if err := eng.WriteTrace(s.opts.TraceWriter); err != nil {
			return fail.with(fmt.Errorf("core: trace export: %w", err))
		}
	}
	res := s.spent(cp, left, fab)
	res.Solution = &lsap.Solution{Assignment: a, Cost: a.Cost(c), Potentials: pots}
	res.CompileHost, res.Cached = compileTime, !built
	return res, nil
}

// failure ends a solve that went wrong on cp: the program is marked
// dirty, and what the solve spent comes back with the error.
type failure struct {
	s    *Solver
	cp   *CompiledProgram
	fab  *Fabric
	left poplar.RunReport // reports of programs the solve moved off
}

func (f failure) with(err error) (*Result, error) {
	f.cp.dirty = true
	return f.s.spent(f.cp, f.left, f.fab), err
}

// spent is the Result of what a solve that ended on cp spent on the
// device, whether or not it succeeded; left sums the recovery reports
// of the programs it moved off.
func (s *Solver) spent(cp *CompiledProgram, left poplar.RunReport, fab *Fabric) *Result {
	res := &Result{
		Stats:        cp.dev.Stats(),
		Modeled:      cp.dev.ModeledTime(),
		MaxTileBytes: cp.dev.MaxAllocated(),
		Recovery:     addReport(left, cp.eng.Report()),
		Fabric:       fab,
	}
	if s.opts.Profile {
		res.Profile = cp.eng.Profile()
	}
	return res
}
