package hunipu

import (
	"hunipu/internal/core"
	"hunipu/internal/ipuauction"
)

// ProgramCacheStats is a point-in-time snapshot of the process-wide
// cache of HunIPU's compiled programs (see DESIGN.md "Program
// lifecycle"). Every IPU solve acquires its compiled program — graph
// construction, static verification, compilation — from a
// fingerprint-keyed LRU cache, so repeated same-shape solves pay only
// data upload + run + readback. The counters let a serving layer watch
// the cache work: a healthy daemon serving a stable shape repertoire
// converges to Hits ≫ Misses with zero InFlight. They count exact
// (HunIPU) programs only; the bounded tier's IPU auction programs live
// in a second instance of the same cache, which these counters leave
// out.
type ProgramCacheStats struct {
	// Hits counts solves served by an already-compiled program,
	// including those that waited on another solve's in-flight build.
	Hits int64
	// Misses counts solves that found no cached program for their
	// fingerprint and triggered (or joined) a build.
	Misses int64
	// Evictions counts programs dropped by the LRU bound.
	Evictions int64
	// Builds counts graph construction + verification + compilation
	// runs. Single-flight construction guarantees Builds ≤ Misses.
	Builds int64
	// InFlight is the number of builds running right now.
	InFlight int64
	// Entries is the number of programs currently cached.
	Entries int64
	// Capacity is the LRU bound (0 = caching disabled).
	Capacity int64
}

// DefaultProgramCacheCapacity is the process-wide cache's default LRU
// bound, in distinct program shapes.
const DefaultProgramCacheCapacity = core.DefaultCacheCapacity

// ProgramCacheSnapshot reads the process-wide cache counters.
func ProgramCacheSnapshot() ProgramCacheStats {
	s := core.DefaultCache().Stats()
	return ProgramCacheStats{
		Hits:      s.Hits,
		Misses:    s.Misses,
		Evictions: s.Evictions,
		Builds:    s.Builds,
		InFlight:  s.InFlight,
		Entries:   s.Entries,
		Capacity:  s.Capacity,
	}
}

// SetProgramCacheCapacity rebounds both process-wide compiled-program
// caches, HunIPU's and the IPU auction's (default
// core.DefaultCacheCapacity = 16 shapes each), evicting
// least-recently-used programs that no longer fit. Capacity ≤ 0
// disables caching entirely: every solve then rebuilds and recompiles
// its program, which is only useful for memory-constrained hosts or
// for timing the cold path.
func SetProgramCacheCapacity(capacity int) {
	core.DefaultCache().SetCapacity(capacity)
	ipuauction.DefaultCache().SetCapacity(capacity)
}

// ClearProgramCache evicts every cached compiled program from both
// caches. Mostly for tests and benchmarks that need a cold cache
// without restarting the process.
func ClearProgramCache() {
	core.DefaultCache().Clear()
	ipuauction.DefaultCache().Clear()
}
