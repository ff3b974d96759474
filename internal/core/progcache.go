package core

import (
	"fmt"
	"sync"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// This file separates program *shape* from program *instance*
// (DESIGN.md §5e). A CompiledProgram is the immutable shape artefact —
// graph construction, static verification, and compilation for one
// (size, device, options) fingerprint — and the ProgramCache is a
// bounded LRU of those artefacts with memoized single-flight
// construction: N concurrent solves of the same shape compile exactly
// once, and every later same-shape solve pays only data upload, run,
// and readback. Per-solve (instance) state — input tensors, guard
// copies, recovery reports — is reset around every run so a cached
// program survives faults and stays reusable; its engine keeps the
// checkpoint buffers for the next run.

// programKey is the compile fingerprint: every Options field that
// changes the constructed graph, the compiled engine, or the bound
// device appears here, so two solves share a compiled program only
// when the program they would build is identical. Injectors are
// compared by identity — a shared stateful injector (a serving layer's
// chaos drill) reuses one program while its fault budget drains, and
// solves differing only in fault schedule never share. Profile and
// TraceWriter are not here: the engine instruments every run, so they
// never change which program a solve gets.
type programKey struct {
	n   int
	cfg ipu.Config

	colSegment         int
	threadsPerRow      int
	disableCompression bool
	use2D              bool
	epsilon            float64

	guard           poplar.GuardPolicy
	maxRetries      int
	checkpointEvery int64
	maxSupersteps   int64

	// minIPUs and lost are the fabric topology: the layout floor and the
	// original indices of chips a solve has dropped (bit i = chip i), so
	// each survivor program is cached under its own key.
	minIPUs int
	lost    uint64

	fault faultinject.Injector
}

// CompiledProgram is one shape's reusable artefact: the laid-out
// builder, the verified and compiled engine, and the simulated device
// whose tile memory the graph is charged against. The graph structure
// is immutable after construction; all mutable state lives in tensor
// data and engine run-state, which every solve resets. Runs serialize
// on mu — tensor data is program-resident, so one instance executes
// one solve at a time.
type CompiledProgram struct {
	b   *builder
	eng *poplar.Engine
	dev *ipu.Device

	mu sync.Mutex
	// dirty marks tensor state as scrambled by a failed run (injected
	// fault, guard trip, cancellation mid-superstep). The next run
	// zeroes all tensors first, restoring the cold-engine state, so the
	// program never needs recompiling.
	dirty bool
}

// ProgramCache is HunIPU's instance of the shared single-flight LRU,
// keyed by compile fingerprint.
type ProgramCache = poplar.ProgramCache[programKey, *CompiledProgram]

// CacheStats is a point-in-time snapshot of ProgramCache counters.
type CacheStats = poplar.CacheStats

// DefaultCacheCapacity bounds the process-wide default cache.
const DefaultCacheCapacity = poplar.DefaultCacheCapacity

// defaultCache is the process-wide cache hunipu.Solve warms across
// calls. Tests wanting isolation pass Options.Cache.
var defaultCache = NewProgramCache(DefaultCacheCapacity)

// DefaultCache returns the process-wide program cache.
func DefaultCache() *ProgramCache { return defaultCache }

// NewProgramCache creates a cache bounded to capacity programs.
// Capacity ≤ 0 disables caching: every acquisition builds an ephemeral
// program that is dropped after the solve.
func NewProgramCache(capacity int) *ProgramCache {
	return poplar.NewProgramCache[programKey, *CompiledProgram](capacity)
}

// acquire returns the program for an n×n problem on the chips left
// after dropping the lost set, and whether this call built it: a
// solve's first program and every fabric survivor come from here.
func (s *Solver) acquire(n int, lost uint64) (*CompiledProgram, bool, error) {
	return s.cache.AcquireFor(s.opts.Fault, s.keyFor(n, lost), func() (*CompiledProgram, error) {
		return s.compileProgram(n, lost)
	})
}

// keyFor derives the solver's compile fingerprint for an n×n problem
// on the chips left after dropping the lost set.
func (s *Solver) keyFor(n int, lost uint64) programKey {
	o := s.opts
	return programKey{
		n:                  n,
		cfg:                o.survivors(lost).Config,
		colSegment:         o.ColSegment,
		threadsPerRow:      o.ThreadsPerRow,
		disableCompression: o.DisableCompression,
		use2D:              o.Use2D,
		epsilon:            o.Epsilon,
		guard:              o.Guard,
		maxRetries:         o.MaxRetries,
		checkpointEvery:    o.CheckpointEvery,
		maxSupersteps:      o.MaxSupersteps,
		minIPUs:            o.MinIPUs,
		lost:               lost,
		fault:              o.Fault,
	}
}

// compileProgram is the cold path: graph construction, ahead-of-run
// verification, and compilation for one shape on the chips left after
// dropping the lost set. Everything here is exactly what a warm-cache
// solve skips.
func (s *Solver) compileProgram(n int, lost uint64) (*CompiledProgram, error) {
	o := s.opts.survivors(lost)
	// Fail fast on problems that cannot fit tile memory: the typed
	// *ipu.CapacityError here is cheaper and more specific than the
	// verifier's C2 diagnostic after a full graph construction. The
	// estimate assumes the row-block layout (for MinIPUs chips when the
	// solve may shrink to them), so the 2D ablation (whose tiles hold
	// only a column segment of each row) skips it and relies on the
	// verifier.
	if !o.Use2D {
		if err := o.Config.ValidateProblem(n, o.MinIPUs); err != nil {
			return nil, err
		}
	}
	b, err := newBuilder(o, n)
	if err != nil {
		return nil, err
	}
	prog := b.buildProgram()
	dev, err := ipu.NewDevice(o.Config)
	if err != nil {
		return nil, err
	}
	// The injector goes in before NewEngine so tile-memory faults can
	// fire during graph compilation's allocations.
	if o.Fault != nil {
		dev.SetInjector(o.Fault)
	}
	engOpts := []poplar.EngineOption{
		poplar.WithRetry(s.opts.MaxRetries),
	}
	if s.opts.Guard != poplar.GuardOff {
		engOpts = append(engOpts, poplar.WithGuard(s.opts.Guard))
	}
	if s.opts.CheckpointEvery > 0 {
		engOpts = append(engOpts, poplar.WithCheckpointEvery(s.opts.CheckpointEvery))
	}
	if s.opts.MaxSupersteps != 0 {
		engOpts = append(engOpts, poplar.WithMaxSupersteps(s.opts.MaxSupersteps))
	}
	eng, err := poplar.NewEngine(b.g, prog, dev, engOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: graph compilation failed: %w", err)
	}
	if s.opts.Guard != poplar.GuardOff {
		b.registerInvariants(eng)
	}
	return &CompiledProgram{b: b, eng: eng, dev: dev}, nil
}
