package core

import (
	"container/list"
	"fmt"
	"reflect"
	"sync"
	"time"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// This file separates program *shape* from program *instance*
// (DESIGN.md §7). A CompiledProgram is the immutable shape artefact —
// graph construction, static verification, and compilation for one
// (size, device, options) fingerprint — and the ProgramCache is a
// bounded LRU of those artefacts with memoized single-flight
// construction: N concurrent solves of the same shape compile exactly
// once, and every later same-shape solve pays only data upload, run,
// and readback. Per-solve (instance) state — input tensors, checkpoint
// rings, guard copies, recovery reports — is reset around every run so
// a cached program survives faults and stays reusable.

// programKey is the compile fingerprint: every Options field that
// changes the constructed graph, the compiled engine, or the bound
// device appears here, so two solves share a compiled program only
// when the program they would build is identical. Injectors are
// compared by identity — a shared stateful injector (a serving layer's
// chaos drill) reuses one program while its fault budget drains, and
// solves differing only in fault schedule never share. The zero-valued
// owner field pins nothing; a non-nil owner makes the program private
// to one Solver (profiling, tracing, or a non-comparable injector).
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
	retryBackoff    time.Duration
	checkpointEvery int64
	maxSupersteps   int64

	// minIPUs and lost are the fabric topology: the layout floor and the
	// original indices of chips a solve has dropped (bit i = chip i), so
	// each survivor program is cached under its own key.
	minIPUs int
	lost    uint64

	fault faultinject.Injector
	owner *Solver
}

// Fingerprint renders the key for logs and tests. Two keys are shared
// iff they are ==; the string is descriptive, not the identity.
func (k programKey) Fingerprint() string {
	fault := "none"
	if k.fault != nil {
		fault = fmt.Sprintf("%T@%p", k.fault, k.fault)
	}
	private := ""
	if k.owner != nil {
		private = fmt.Sprintf(" private=%p", k.owner)
	}
	fabric := ""
	if k.minIPUs > 0 {
		fabric = fmt.Sprintf(" min=%d lost=%#x", k.minIPUs, k.lost)
	}
	return fmt.Sprintf("n=%d dev=%s tiles=%d seg=%d threads=%d compress=%v 2d=%v eps=%g guard=%s retries=%d backoff=%s cp=%d maxss=%d fault=%s%s%s",
		k.n, k.cfg.Name, k.cfg.Tiles(), k.colSegment, k.threadsPerRow,
		!k.disableCompression, k.use2D, k.epsilon, k.guard, k.maxRetries, k.retryBackoff,
		k.checkpointEvery, k.maxSupersteps, fault, fabric, private)
}

// CompiledProgram is one shape's reusable artefact: the laid-out
// builder, the verified and compiled engine, and the simulated device
// whose tile memory the graph is charged against. The graph structure
// is immutable after construction; all mutable state lives in tensor
// data and engine run-state, which every solve resets. Runs serialize
// on mu — tensor data is program-resident, so one instance executes
// one solve at a time (callers wanting same-shape parallelism hold
// distinct fingerprints, e.g. distinct private owners).
type CompiledProgram struct {
	key programKey
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

// footprintBytes estimates the host-side bytes the program pins while
// cached (tensor backing arrays; the float64 simulator width, not the
// modeled device width). Used by heap-retention tests and reports.
func (cp *CompiledProgram) footprintBytes() int64 {
	n := int64(cp.key.n)
	// slack + compress + sortCompress dominate at n×n each.
	return 3 * n * n * 8
}

// CacheStats is a point-in-time snapshot of ProgramCache counters.
type CacheStats struct {
	// Hits counts acquisitions served by an already-compiled program,
	// including those that waited on another solve's in-flight build
	// (they still skipped construction themselves).
	Hits int64
	// Misses counts acquisitions that found no entry and started (or
	// bypassed, with caching disabled) a build.
	Misses int64
	// Evictions counts programs dropped by the LRU bound or SetCapacity.
	Evictions int64
	// Builds counts graph construction + verification + compilation
	// runs — the single-flight invariant is Builds ≤ Misses, with
	// equality when no build ever failed.
	Builds int64
	// InFlight is the number of builds currently running.
	InFlight int64
	// Entries is the number of programs currently cached.
	Entries int64
	// Capacity is the LRU bound (0 = caching disabled).
	Capacity int64
}

// cacheEntry is one key's slot, created before its build starts so
// concurrent same-key solves wait on ready instead of compiling again.
type cacheEntry struct {
	key   programKey
	ready chan struct{} // closed when prog/err are final
	prog  *CompiledProgram
	err   error
	elem  *list.Element // position in the LRU list (nil once evicted)
}

// ProgramCache is a bounded LRU of compiled programs with single-flight
// construction. The zero value is unusable; create with NewProgramCache.
// All methods are safe for concurrent use.
type ProgramCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[programKey]*cacheEntry
	lru      *list.List // front = most recently used; values are *cacheEntry

	hits      int64
	misses    int64
	evictions int64
	builds    int64
	inflight  int64
}

// DefaultCacheCapacity bounds the process-wide default cache: enough
// for a daemon's repertoire of hot shapes while capping host memory
// (a cached n=512 program pins ~6 MB of tensor backing).
const DefaultCacheCapacity = 16

// defaultCache is the process-wide cache hunipu.Solve warms across
// calls. Tests wanting isolation pass Options.Cache.
var defaultCache = NewProgramCache(DefaultCacheCapacity)

// DefaultCache returns the process-wide program cache.
func DefaultCache() *ProgramCache { return defaultCache }

// NewProgramCache creates a cache bounded to capacity programs.
// Capacity ≤ 0 disables caching: every acquisition builds an ephemeral
// program that is dropped after the solve.
func NewProgramCache(capacity int) *ProgramCache {
	if capacity < 0 {
		capacity = 0
	}
	return &ProgramCache{
		capacity: capacity,
		entries:  map[programKey]*cacheEntry{},
		lru:      list.New(),
	}
}

// Stats snapshots the counters.
func (pc *ProgramCache) Stats() CacheStats {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return CacheStats{
		Hits:      pc.hits,
		Misses:    pc.misses,
		Evictions: pc.evictions,
		Builds:    pc.builds,
		InFlight:  pc.inflight,
		Entries:   int64(len(pc.entries)),
		Capacity:  int64(pc.capacity),
	}
}

// SetCapacity rebounds the cache, evicting least-recently-used
// programs that no longer fit. Capacity ≤ 0 disables caching and
// evicts everything.
func (pc *ProgramCache) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.capacity = capacity
	pc.evictOverflowLocked()
}

// Clear evicts every cached program (counted as evictions).
func (pc *ProgramCache) Clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for pc.lru.Len() > 0 {
		pc.evictBackLocked()
	}
}

// Len returns the number of cached programs.
func (pc *ProgramCache) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// evictOverflowLocked drops LRU entries until the bound holds.
func (pc *ProgramCache) evictOverflowLocked() {
	for pc.lru.Len() > pc.capacity && pc.lru.Len() > 0 {
		pc.evictBackLocked()
	}
}

// evictBackLocked removes the least-recently-used entry. A solve
// holding the evicted program keeps running against its own reference;
// eviction only drops the cache's, so the GC reclaims the tensors once
// in-flight users finish.
func (pc *ProgramCache) evictBackLocked() {
	back := pc.lru.Back()
	if back == nil {
		return
	}
	ent := back.Value.(*cacheEntry)
	pc.lru.Remove(back)
	ent.elem = nil
	delete(pc.entries, ent.key)
	pc.evictions++
}

// acquire returns the compiled program for key, building it with build
// exactly once per cache residency no matter how many goroutines ask
// concurrently (memoized single-flight). The second return reports
// whether THIS call ran the build. Build failures are not cached: the
// failing entry is removed so a later solve retries, and every waiter
// of the failed flight observes the same error.
func (pc *ProgramCache) acquire(key programKey, build func() (*CompiledProgram, error)) (*CompiledProgram, bool, error) {
	if pc == nil || pc.capacity <= 0 {
		// Caching disabled: ephemeral build per solve.
		if pc != nil {
			pc.mu.Lock()
			pc.misses++
			pc.builds++
			pc.inflight++
			pc.mu.Unlock()
			defer func() {
				pc.mu.Lock()
				pc.inflight--
				pc.mu.Unlock()
			}()
		}
		cp, err := build()
		return cp, true, err
	}

	pc.mu.Lock()
	if ent, ok := pc.entries[key]; ok {
		pc.hits++
		if ent.elem != nil {
			pc.lru.MoveToFront(ent.elem)
		}
		pc.mu.Unlock()
		<-ent.ready
		return ent.prog, false, ent.err
	}
	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	ent.elem = pc.lru.PushFront(ent)
	pc.entries[key] = ent
	pc.misses++
	pc.builds++
	pc.inflight++
	pc.evictOverflowLocked()
	pc.mu.Unlock()

	ent.prog, ent.err = build()
	pc.mu.Lock()
	pc.inflight--
	if ent.err != nil && ent.elem != nil {
		// Do not memoize failures; the entry may already be evicted.
		pc.lru.Remove(ent.elem)
		ent.elem = nil
		delete(pc.entries, ent.key)
	}
	pc.mu.Unlock()
	close(ent.ready)
	return ent.prog, true, ent.err
}

// keyFor derives the solver's compile fingerprint for an n×n problem
// on the chips left after dropping the lost set (0 for every solve
// that has lost none). Options that embed per-solver host-side state
// the fingerprint cannot capture by value — a profiling accumulator, a
// trace writer, or an injector whose dynamic type Go cannot compare —
// pin the program to this Solver instead of sharing it process-wide.
func (s *Solver) keyFor(n int, lost uint64) programKey {
	o := s.opts
	k := programKey{
		n:                  n,
		cfg:                o.survivors(lost).Config,
		colSegment:         o.ColSegment,
		threadsPerRow:      o.ThreadsPerRow,
		disableCompression: o.DisableCompression,
		use2D:              o.Use2D,
		epsilon:            o.Epsilon,
		guard:              o.Guard,
		maxRetries:         o.MaxRetries,
		retryBackoff:       o.RetryBackoff,
		checkpointEvery:    o.CheckpointEvery,
		maxSupersteps:      o.MaxSupersteps,
		minIPUs:            o.MinIPUs,
		lost:               lost,
	}
	if o.Fault != nil {
		if reflect.TypeOf(o.Fault).Comparable() {
			k.fault = o.Fault
		} else {
			k.owner = s
		}
	}
	if o.Profile || o.TraceWriter != nil {
		k.owner = s
	}
	return k
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
		poplar.WithRetry(s.opts.MaxRetries, s.opts.RetryBackoff),
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
	if s.opts.Profile {
		engOpts = append(engOpts, poplar.WithProfiling())
	}
	if s.opts.TraceWriter != nil {
		engOpts = append(engOpts, poplar.WithTrace())
	}
	eng, err := poplar.NewEngine(b.g, prog, dev, engOpts...)
	if err != nil {
		return nil, fmt.Errorf("core: graph compilation failed: %w", err)
	}
	if s.opts.Guard != poplar.GuardOff {
		b.registerInvariants(eng)
	}
	return &CompiledProgram{key: s.keyFor(n, lost), b: b, eng: eng, dev: dev}, nil
}
