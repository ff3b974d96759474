package poplar

import (
	"container/list"
	"reflect"
	"sync"

	"hunipu/internal/faultinject"
)

// DefaultCacheCapacity bounds each process-wide program cache: enough
// for a daemon's repertoire of hot shapes while capping host memory
// (a cached n=512 HunIPU program pins ~6 MB of tensor backing).
const DefaultCacheCapacity = 16

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
type cacheEntry[K comparable, P any] struct {
	key   K
	ready chan struct{} // closed when prog/err are final
	prog  P
	err   error
	elem  *list.Element // position in the LRU list (nil once evicted)
}

// ProgramCache is a bounded LRU of compiled programs P, keyed by a
// compile fingerprint K, with single-flight construction: N concurrent
// acquisitions of one key build exactly once. Each solver that compiles
// static graphs holds its own instance. The zero value is unusable;
// create with NewProgramCache. All methods are safe for concurrent use.
type ProgramCache[K comparable, P any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*cacheEntry[K, P]
	lru      *list.List // front = most recently used; values are *cacheEntry

	hits      int64
	misses    int64
	evictions int64
	builds    int64
	inflight  int64
}

// NewProgramCache creates a cache bounded to capacity programs.
// Capacity ≤ 0 disables caching: every acquisition builds an ephemeral
// program that is dropped after the solve.
func NewProgramCache[K comparable, P any](capacity int) *ProgramCache[K, P] {
	if capacity < 0 {
		capacity = 0
	}
	return &ProgramCache[K, P]{
		capacity: capacity,
		entries:  map[K]*cacheEntry[K, P]{},
		lru:      list.New(),
	}
}

// Stats snapshots the counters.
func (pc *ProgramCache[K, P]) Stats() CacheStats {
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
func (pc *ProgramCache[K, P]) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.capacity = capacity
	pc.evictOverflowLocked()
}

// Clear evicts every cached program (counted as evictions).
func (pc *ProgramCache[K, P]) Clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for pc.lru.Len() > 0 {
		pc.evictBackLocked()
	}
}

// Len returns the number of cached programs.
func (pc *ProgramCache[K, P]) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// evictOverflowLocked drops LRU entries until the bound holds.
func (pc *ProgramCache[K, P]) evictOverflowLocked() {
	for pc.lru.Len() > pc.capacity && pc.lru.Len() > 0 {
		pc.evictBackLocked()
	}
}

// evictBackLocked removes the least-recently-used entry. A solve
// holding the evicted program keeps running against its own reference;
// eviction only drops the cache's, so the GC reclaims the tensors once
// in-flight users finish.
func (pc *ProgramCache[K, P]) evictBackLocked() {
	back := pc.lru.Back()
	if back == nil {
		return
	}
	ent := back.Value.(*cacheEntry[K, P])
	pc.lru.Remove(back)
	ent.elem = nil
	delete(pc.entries, ent.key)
	pc.evictions++
}

// Acquire returns the compiled program for key, building it with build
// exactly once per cache residency no matter how many goroutines ask
// concurrently (memoized single-flight). The second return reports
// whether THIS call ran the build. Build failures are not cached: the
// failing entry is removed so a later solve retries, and every waiter
// of the failed flight observes the same error.
func (pc *ProgramCache[K, P]) Acquire(key K, build func() (P, error)) (P, bool, error) {
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
		p, err := build()
		return p, true, err
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
	ent := &cacheEntry[K, P]{key: key, ready: make(chan struct{})}
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

// AcquireFor is Acquire for a program bound to the injector inj, which
// its key holds. A key holding an injector Go cannot compare would
// panic the cache's map, so such a call builds a program for this one
// solve, which never enters the cache and moves no counter.
func (pc *ProgramCache[K, P]) AcquireFor(inj faultinject.Injector, key K, build func() (P, error)) (P, bool, error) {
	if inj != nil && !reflect.TypeOf(inj).Comparable() {
		p, err := build()
		return p, true, err
	}
	return pc.Acquire(key, build)
}
