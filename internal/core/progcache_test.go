package core

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/poplar"
)

// cacheOptions is testOptions with a private cache, so cache-behavior
// assertions never race with other tests warming the shared default.
func cacheOptions(capacity int) (Options, *ProgramCache) {
	o := testOptions()
	pc := NewProgramCache(capacity)
	o.Cache = pc
	return o, pc
}

func TestWarmCacheSkipsConstruction(t *testing.T) {
	o, pc := cacheOptions(4)
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(1))
	m := randomIntMatrix(rng, 24, 50)

	r1, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first solve on an empty cache reported Cached")
	}
	certifyOptimal(t, m, r1.Solution)

	r2, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("second same-shape solve did not report Cached")
	}
	certifyOptimal(t, m, r2.Solution)
	if r2.CompileHost > r1.CompileHost/2 {
		t.Errorf("warm CompileHost %v not well under cold %v", r2.CompileHost, r1.CompileHost)
	}

	st := pc.Stats()
	if st.Builds != 1 {
		t.Errorf("Builds = %d after two same-shape solves, want 1", st.Builds)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("Hits/Misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
}

// TestWarmCacheAcrossSolvers is the property hunipu.Solve relies on:
// distinct Solver values with identical options share compiled
// programs through a common cache.
func TestWarmCacheAcrossSolvers(t *testing.T) {
	o, pc := cacheOptions(4)
	rng := rand.New(rand.NewSource(2))
	m := randomIntMatrix(rng, 20, 50)

	for i := 0; i < 3; i++ {
		s := newSolver(t, o)
		r, err := s.SolveDetailed(m)
		if err != nil {
			t.Fatal(err)
		}
		certifyOptimal(t, m, r.Solution)
		if wantCached := i > 0; r.Cached != wantCached {
			t.Errorf("solver %d: Cached = %v, want %v", i, r.Cached, wantCached)
		}
	}
	if st := pc.Stats(); st.Builds != 1 {
		t.Errorf("Builds = %d across three same-option solvers, want 1", st.Builds)
	}
}

// TestFingerprintIsolation: options that change the compiled program —
// guard policy, fault schedule, device config, ablation switches —
// must never share a cache entry.
func TestFingerprintIsolation(t *testing.T) {
	smallCfg := ipu.MK2()
	smallCfg.TilesPerIPU = 32
	schedA, err := faultinject.ParseSchedule("seed=1; exchange at=100000")
	if err != nil {
		t.Fatal(err)
	}
	schedB, err := faultinject.ParseSchedule("seed=1; exchange at=100000")
	if err != nil {
		t.Fatal(err)
	}

	base := testOptions()
	variants := []struct {
		name   string
		mutate func(*Options)
	}{
		{"base", func(*Options) {}},
		{"guard", func(o *Options) { o.Guard = poplar.GuardInvariants }},
		{"guard-paranoid", func(o *Options) { o.Guard = poplar.GuardParanoid }},
		{"device", func(o *Options) { o.Config = smallCfg }},
		{"fault-a", func(o *Options) { o.Fault = schedA }},
		{"fault-b", func(o *Options) { o.Fault = schedB }},
		{"no-compress", func(o *Options) { o.DisableCompression = true }},
		{"retries", func(o *Options) { o.MaxRetries = 3 }},
	}

	pc := NewProgramCache(len(variants))
	keys := map[programKey]string{}
	rng := rand.New(rand.NewSource(3))
	m := randomIntMatrix(rng, 16, 50)
	for _, v := range variants {
		o := base
		o.Cache = pc
		v.mutate(&o)
		s := newSolver(t, o)
		k := s.keyFor(m.N, 0)
		if prev, dup := keys[k]; dup {
			t.Fatalf("variants %q and %q share fingerprint %+v", prev, v.name, k)
		}
		keys[k] = v.name
		if _, err := s.SolveDetailed(m); err != nil {
			t.Fatalf("variant %q: %v", v.name, err)
		}
	}
	if st := pc.Stats(); st.Builds != int64(len(variants)) {
		t.Errorf("Builds = %d, want %d (one per distinct fingerprint)", st.Builds, len(variants))
	}
}

// TestNonComparableInjectorBypassesCache: an injector whose dynamic
// type Go cannot compare (e.g. one holding a func field) cannot be a
// map key; each solve builds a program of its own instead of panicking
// inside the cache, and the cache never sees it.
func TestNonComparableInjectorBypassesCache(t *testing.T) {
	o, pc := cacheOptions(4)
	o.Fault = funcInjector{fn: func() {}}
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(4))
	m := randomIntMatrix(rng, 12, 50)
	for i := 0; i < 2; i++ {
		r, err := s.SolveDetailed(m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached {
			t.Errorf("solve %d reported a cached program", i)
		}
	}
	if st := pc.Stats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Errorf("cache saw %d acquisitions and holds %d entries, want none", st.Hits+st.Misses, st.Entries)
	}
}

// TestInstrumentedSolvesShareProgram: Profile and TraceWriter
// instrument the run, not the program, so solves with them on share
// the plain solve's program. hunipu.Solve makes a Solver per call; 16
// profiled ones on a 16-entry cache must neither build nor evict.
func TestInstrumentedSolvesShareProgram(t *testing.T) {
	o, pc := cacheOptions(DefaultCacheCapacity)
	m := randomIntMatrix(rand.New(rand.NewSource(14)), 16, 50)
	if _, err := newSolver(t, o).SolveDetailed(m); err != nil {
		t.Fatal(err)
	}
	profiled := o
	profiled.Profile = true
	for i := 0; i < DefaultCacheCapacity; i++ {
		r, err := newSolver(t, profiled).SolveDetailed(m)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Cached || len(r.Profile) == 0 {
			t.Fatalf("profiled solve %d: Cached = %v with %d profile entries, want a cached program and a profile", i, r.Cached, len(r.Profile))
		}
	}
	r, err := newSolver(t, o).SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Error("plain solve after the profiled ones rebuilt its program")
	}
	if st := pc.Stats(); st.Builds != 1 || st.Entries != 1 {
		t.Errorf("Builds/Entries = %d/%d, want 1/1", st.Builds, st.Entries)
	}
}

// funcInjector is deliberately non-comparable (func field).
type funcInjector struct{ fn func() }

func (funcInjector) Check(faultinject.Point) *faultinject.FaultError { return nil }

func TestProgramCacheLRUEviction(t *testing.T) {
	o, pc := cacheOptions(2)
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(5))
	sizes := []int{10, 12, 14}
	for _, n := range sizes {
		if _, err := s.SolveDetailed(randomIntMatrix(rng, n, 50)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	st := pc.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("Entries/Evictions = %d/%d after 3 shapes into capacity 2, want 2/1", st.Entries, st.Evictions)
	}
	// n=10 was least recently used and must be gone: solving it again
	// rebuilds; n=14 is still warm.
	r, err := s.SolveDetailed(randomIntMatrix(rng, 10, 50))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("evicted shape reported Cached on re-solve")
	}
	r, err = s.SolveDetailed(randomIntMatrix(rng, 14, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Error("most-recent shape was evicted, want LRU order to keep it")
	}
}

func TestProgramCacheDisabled(t *testing.T) {
	o, pc := cacheOptions(0)
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(6))
	m := randomIntMatrix(rng, 14, 50)
	for i := 0; i < 2; i++ {
		r, err := s.SolveDetailed(m)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cached {
			t.Errorf("solve %d reported Cached with caching disabled", i)
		}
		certifyOptimal(t, m, r.Solution)
	}
	if st := pc.Stats(); st.Builds != 2 || st.Entries != 0 {
		t.Errorf("Builds/Entries = %d/%d with caching disabled, want 2/0", st.Builds, st.Entries)
	}
}

// TestDirtyProgramReuseAfterFault: a solve that fails mid-run must not
// cost the next solve a recompilation — the program is zeroed and
// reused, and the post-fault answer is still certified optimal.
func TestDirtyProgramReuseAfterFault(t *testing.T) {
	sched, err := faultinject.ParseSchedule("seed=7; exchange at=5 times=1")
	if err != nil {
		t.Fatal(err)
	}
	o, pc := cacheOptions(4)
	o.Fault = sched
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(7))
	m := randomIntMatrix(rng, 20, 50)

	if _, err := s.SolveDetailed(m); err == nil {
		t.Fatal("first solve with an unrecovered fatal fault succeeded, want error")
	} else if _, ok := faultinject.AsFault(err); !ok {
		t.Fatalf("first solve failed with %v, want a typed *FaultError", err)
	}
	// The schedule's fault budget is drained; the retry reuses the same
	// (now dirty) program and must succeed without rebuilding.
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatalf("post-fault solve: %v", err)
	}
	if !r.Cached {
		t.Error("post-fault solve recompiled, want dirty-program reuse")
	}
	certifyOptimal(t, m, r.Solution)
	if st := pc.Stats(); st.Builds != 1 {
		t.Errorf("Builds = %d across fault + retry, want 1", st.Builds)
	}
}

// TestGuardInputReleasedAfterSolve is the direct form of the
// heap-retention fix: a cached program must not keep the guard's
// pristine copy of the caller's cost matrix alive between solves.
func TestGuardInputReleasedAfterSolve(t *testing.T) {
	o, pc := cacheOptions(4)
	o.Guard = poplar.GuardInvariants
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(8))
	m := randomIntMatrix(rng, 20, 50)
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	certifyOptimal(t, m, r.Solution)
	cp, _, err := pc.Acquire(s.keyFor(m.N, 0), func() (*CompiledProgram, error) {
		t.Fatal("unexpected rebuild")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cp.b.input != nil {
		t.Errorf("cached program retains %d-element guard input copy after solve", len(cp.b.input))
	}
}

// TestEvictionReleasesProgramMemory measures live heap across eviction:
// dropping a cached program must actually return its tensor backing to
// the garbage collector (no lingering references from the cache, the
// engine registry, or checkpoint rings).
func TestEvictionReleasesProgramMemory(t *testing.T) {
	const n = 192
	o, pc := cacheOptions(1)
	o.Guard = poplar.GuardInvariants // exercise guard + checkpoint state too
	o.CheckpointEvery = 64
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(9))
	m := randomIntMatrix(rng, n, 50)
	if _, err := s.SolveDetailed(m); err != nil {
		t.Fatal(err)
	}

	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live()
	pc.Clear()
	after := live()
	if st := pc.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("Entries/Evictions = %d/%d after Clear, want 0/1", st.Entries, st.Evictions)
	}
	// The program's dominant tensors are ~3 n² float64s; demand at
	// least one n² worth back to keep the bound slack against GC noise.
	wantFreed := uint64(n * n * 8)
	if before < after+wantFreed {
		t.Errorf("eviction freed %d bytes, want ≥ %d (before=%d after=%d)",
			int64(before)-int64(after), wantFreed, before, after)
	}
}

func TestSetCapacityEvicts(t *testing.T) {
	o, pc := cacheOptions(4)
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{10, 12, 14} {
		if _, err := s.SolveDetailed(randomIntMatrix(rng, n, 50)); err != nil {
			t.Fatal(err)
		}
	}
	pc.SetCapacity(1)
	if st := pc.Stats(); st.Entries != 1 || st.Capacity != 1 {
		t.Fatalf("Entries/Capacity = %d/%d after SetCapacity(1), want 1/1", st.Entries, st.Capacity)
	}
	// The survivor is the most recently used shape (n=14).
	r, err := s.SolveDetailed(randomIntMatrix(rng, 14, 50))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cached {
		t.Error("SetCapacity evicted the most recently used program")
	}
}

// TestCacheBuildFailureNotMemoized: a failed construction must not
// poison the cache — the next solve retries the build.
func TestCacheBuildFailureNotMemoized(t *testing.T) {
	pc := NewProgramCache(4)
	key := programKey{n: 99}
	fail := true
	build := func() (*CompiledProgram, error) {
		if fail {
			return nil, errBuildFailed
		}
		return &CompiledProgram{}, nil
	}
	if _, _, err := pc.Acquire(key, build); err == nil {
		t.Fatal("failed build returned no error")
	}
	if pc.Len() != 0 {
		t.Fatalf("failed build left %d cache entries", pc.Len())
	}
	fail = false
	cp, built, err := pc.Acquire(key, build)
	if err != nil || cp == nil || !built {
		t.Fatalf("retry after failed build: cp=%v built=%v err=%v", cp, built, err)
	}
	if st := pc.Stats(); st.Builds != 2 || st.Misses != 2 {
		t.Errorf("Builds/Misses = %d/%d, want 2/2", st.Builds, st.Misses)
	}
}

var errBuildFailed = errors.New("build failed")

// TestCompileHostReflectsWarmth sanity-checks Result.CompileHost, which
// hunipubench reads for its program-cache acquire time: warm
// CompileHost must be microseconds-ish, not the milliseconds of a real
// build.
func TestCompileHostReflectsWarmth(t *testing.T) {
	o, _ := cacheOptions(2)
	s := newSolver(t, o)
	rng := rand.New(rand.NewSource(11))
	m := randomIntMatrix(rng, 32, 50)
	if _, err := s.SolveDetailed(m); err != nil {
		t.Fatal(err)
	}
	r, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompileHost > 5*time.Millisecond {
		t.Errorf("warm-cache CompileHost = %v, want near-zero", r.CompileHost)
	}
}
