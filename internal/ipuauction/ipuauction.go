// Package ipuauction implements Bertsekas' auction algorithm *on the
// simulated IPU*, in the same poplar static-graph framework as HunIPU.
// The paper's conclusion argues that "IPUs are also amenable to
// algorithms beyond standard machine learning tasks"; this package
// tests that claim on a second assignment algorithm, giving the
// extension experiment HunIPU-vs-IPU-Auction under identical machine
// models.
//
// The whole ε-scaling loop runs on-device with static control flow:
// an outer RepeatWhileTrue over ε phases, an inner RepeatWhileTrue
// over bidding rounds. Each round is two supersteps: every unassigned
// bidder computes its bid in parallel against the live prices (one
// vertex per row, MIMD — no divergence penalty, unlike the GPU
// version), and a single serializer vertex resolves the conflicts,
// since the IPU has no atomics (C1).
package ipuauction

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// Options configures the solver.
type Options struct {
	// Config is the simulated device; zero value means ipu.MK2().
	Config ipu.Config
	// MaxSupersteps bounds execution. 0 means 2^40.
	MaxSupersteps int64
	// Fault installs a deterministic fault injector on the simulated
	// device; see internal/faultinject.
	Fault faultinject.Injector
	// MaxRetries bounds checkpoint-resume recovery from transient
	// injected faults. 0 disables recovery.
	MaxRetries int
	// Epsilon is the target normalized optimality gap (see
	// lsap.NormalizedGap). The device's scaling loop stops as soon as a
	// phase below lsap.AuctionDriver.Floor has run. At 0 that floor is
	// 1/(n+1), the full schedule, exact for integer matrices; above 0
	// it scales with Epsilon, since ε-complementary slackness bounds
	// the gap by n·ε. The host certifies the readback with price-derived
	// feasible duals via lsap.VerifyOptimalWithBound, once per solve: a
	// readback they cannot attest within ε fails with a typed
	// *lsap.GapError, so a bounded answer is attested or withheld,
	// never silently worse.
	Epsilon float64
	// WarmPrices seeds the price tensor (benefit space; −v from a
	// prior solve's duals). Length n, finite. The certificate never
	// depends on them, so a stale prior costs rounds, not soundness.
	// A warm bounded run also skips the coarse ε phases
	// (lsap.AuctionDriver.StartEps).
	WarmPrices []float64
}

// Solver is the IPU auction. It implements lsap.Solver.
type Solver struct {
	opts    Options
	auction lsap.AuctionDriver
}

// New creates a solver, resolving defaults.
func New(opts Options) (*Solver, error) {
	if opts.Config.Tiles() == 0 {
		opts.Config = ipu.MK2()
	}
	if err := opts.Config.Validate(); err != nil {
		return nil, err
	}
	d := lsap.AuctionDriver{Solver: "IPU-Auction", Epsilon: opts.Epsilon, WarmPrices: opts.WarmPrices}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &Solver{opts: opts, auction: d}, nil
}

// Name implements lsap.Solver.
func (s *Solver) Name() string { return "IPU-Auction" }

// Result is a solve with its modeled device profile. A solve that
// fails after reaching the device returns its Result with the error,
// Solution nil, so a caller can account for the device time it spent.
type Result struct {
	Solution *lsap.Solution
	Stats    ipu.Stats
	Modeled  time.Duration
	// Recovery reports what fault recovery did during the run.
	Recovery poplar.RunReport
}

// Solve implements lsap.Solver.
func (s *Solver) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailed(c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveContext implements lsap.ContextSolver.
func (s *Solver) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := s.SolveDetailedContext(ctx, c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// SolveDetailed solves the LSAP and reports the modeled device profile.
func (s *Solver) SolveDetailed(c *lsap.Matrix) (*Result, error) {
	return s.SolveDetailedContext(context.Background(), c)
}

// SolveDetailedContext is SolveDetailed with cancellation support. A
// readback the certificate refuses comes back with its Result, too.
func (s *Solver) SolveDetailedContext(ctx context.Context, c *lsap.Matrix) (*Result, error) {
	n := c.N
	if n == 0 {
		return &Result{Solution: &lsap.Solution{Assignment: lsap.Assignment{}}}, nil
	}
	benefit, maxB, price, err := s.auction.Prepare(c)
	if err != nil {
		return nil, err
	}
	floor := s.auction.Floor(c, maxB)
	p, err := s.program(n)
	if err != nil {
		return nil, err
	}
	// Runs serialize per program: tensor data is program-resident.
	p.mu.Lock()
	defer p.mu.Unlock()
	b, eng, dev := p.b, p.eng, p.dev
	// Every run starts from the all-zero state of a fresh engine. The
	// floor (lsap's, the one end of every port's schedule) and the start
	// are set outside the transfer barrier, so the fault schedule sees
	// the same host transfers as on a freshly compiled program. A cold
	// run leaves eps_start at 0, and the device starts at its own
	// maxB/2; a warm run starts where lsap's rule puts it.
	eng.ResetReport()
	eng.ZeroState()
	b.epsMin.SetScalar(floor)
	if s.opts.WarmPrices != nil {
		b.epsStart.SetScalar(s.auction.StartEps(maxB, floor))
	}
	dev.ResetClock()
	spent := func(sol *lsap.Solution, err error) (*Result, error) {
		return &Result{Solution: sol, Stats: dev.Stats(), Modeled: dev.ModeledTime(), Recovery: eng.Report()}, err
	}
	if err := eng.HostWrite(b.benefit, benefit); err != nil {
		return spent(nil, fmt.Errorf("ipuauction: input transfer failed: %w", err))
	}
	if s.opts.WarmPrices != nil {
		if err := eng.HostWrite(b.price, price); err != nil {
			return spent(nil, fmt.Errorf("ipuauction: warm-price transfer failed: %w", err))
		}
	}
	if err := eng.RunContext(ctx); err != nil {
		if fe, ok := faultinject.AsFault(err); ok {
			return spent(nil, fe)
		}
		if ctx.Err() != nil {
			return spent(nil, ctx.Err())
		}
		return spent(nil, fmt.Errorf("ipuauction: execution failed: %w", err))
	}

	out, err := eng.HostRead(b.assigned)
	if err != nil {
		return spent(nil, fmt.Errorf("ipuauction: result transfer failed: %w", err))
	}
	a := make(lsap.Assignment, n)
	for i, v := range out {
		a[i] = int(v)
	}
	// Read the final prices back: the host derives the certificate
	// attached to every result, exact or bounded.
	prices, err := eng.HostRead(b.price)
	if err != nil {
		return spent(nil, fmt.Errorf("ipuauction: price readback failed: %w", err))
	}
	return spent(s.auction.Certify(c, a, prices))
}

// programKey is the auction's compile fingerprint, following core's:
// every Options field that changes the graph, the engine or the bound
// device. The ε floor, the start and warm prices are tensor data, so
// one program serves every Epsilon, cold or warm. Injectors are
// compared by identity.
type programKey struct {
	n             int
	cfg           ipu.Config
	maxRetries    int
	maxSupersteps int64
	fault         faultinject.Injector
}

// program is one shape's compiled auction: the laid-out builder, the
// verified and compiled engine, and its device. Runs serialize on mu.
type program struct {
	b   *auctionBuilder
	eng *poplar.Engine
	dev *ipu.Device
	mu  sync.Mutex
}

// cache holds the compiled auction programs, an instance of the same
// single-flight LRU that holds HunIPU's.
var cache = poplar.NewProgramCache[programKey, *program](poplar.DefaultCacheCapacity)

// DefaultCache returns the process-wide cache of compiled auction
// programs.
func DefaultCache() *poplar.ProgramCache[programKey, *program] { return cache }

// program returns the compiled auction for an n×n problem: from the
// cache, unless the injector is one Go cannot compare, which gets a
// program of its own (see poplar.ProgramCache.AcquireFor).
func (s *Solver) program(n int) (*program, error) {
	o := s.opts
	key := programKey{n: n, cfg: o.Config, maxRetries: o.MaxRetries, maxSupersteps: o.MaxSupersteps, fault: o.Fault}
	p, _, err := cache.AcquireFor(o.Fault, key, func() (*program, error) { return s.compile(n) })
	return p, err
}

// compile is the cold path: graph construction, ahead-of-run
// verification and compilation, with the injector installed first so
// tile-memory faults can fire during compilation's allocations.
func (s *Solver) compile(n int) (*program, error) {
	b := newAuctionBuilder(s.opts.Config, n)
	dev, err := ipu.NewDevice(s.opts.Config)
	if err != nil {
		return nil, err
	}
	if s.opts.Fault != nil {
		dev.SetInjector(s.opts.Fault)
	}
	engOpts := []poplar.EngineOption{
		poplar.WithRetry(s.opts.MaxRetries),
	}
	if s.opts.MaxSupersteps != 0 {
		engOpts = append(engOpts, poplar.WithMaxSupersteps(s.opts.MaxSupersteps))
	}
	eng, err := poplar.NewEngine(b.g, b.program(), dev, engOpts...)
	if err != nil {
		return nil, fmt.Errorf("ipuauction: graph compilation failed: %w", err)
	}
	return &program{b: b, eng: eng, dev: dev}, nil
}
