package ipuauction

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hunipu/internal/faultinject"
	"hunipu/internal/lsap"
)

// TestWarmBoundedSolveAllocBudget: a warm bounded solve takes its
// compiled program from the cache — no graph construction, no
// verification, no compilation — so it allocates only its host-side
// inputs, readbacks and certificate. Rebuilding the program per solve
// cost ~3,300 objects at this size.
func TestWarmBoundedSolveAllocBudget(t *testing.T) {
	for _, retries := range []int{0, 2} {
		t.Run(fmt.Sprintf("retries=%d", retries), func(t *testing.T) {
			o := testOptions()
			o.Epsilon, o.MaxRetries = 0.05, retries
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			m := randomIntMatrix(rand.New(rand.NewSource(7)), 64, 640)
			if _, err := s.Solve(m); err != nil {
				t.Fatal(err)
			}
			avg := testing.AllocsPerRun(3, func() {
				if _, err := s.Solve(m); err != nil {
					t.Fatal(err)
				}
			})
			const budget = 200
			if avg > budget {
				t.Fatalf("warm bounded n=64 solve allocates %.0f objects, budget %d — the program is being rebuilt", avg, budget)
			}
			t.Logf("warm bounded n=64 solve: %.0f allocs (budget %d)", avg, budget)
		})
	}
}

// TestConcurrentBoundedSolvesBuildOnce: same-shape bounded solves
// racing on a cold cache build one program, serialize on it, and each
// get a certified answer for its own matrix.
func TestConcurrentBoundedSolvesBuildOnce(t *testing.T) {
	cache.Clear()
	before := cache.Stats()
	const solvers = 6
	rng := rand.New(rand.NewSource(11))
	ms := make([]*lsap.Matrix, solvers)
	for i := range ms {
		ms[i] = randomIntMatrix(rng, 24, 500)
	}
	errs := make([]error, solvers)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := testOptions()
			o.Epsilon = 0.05
			s, err := New(o)
			if err != nil {
				errs[i] = err
				return
			}
			sol, err := s.Solve(ms[i])
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = lsap.VerifyOptimalWithBound(ms[i], sol.Assignment, *sol.Potentials, 0.05)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("solver %d: %v", i, err)
		}
	}
	after := cache.Stats()
	if builds := after.Builds - before.Builds; builds != 1 {
		t.Fatalf("%d concurrent same-shape solves built %d programs, want 1", solvers, builds)
	}
	if lookups := after.Hits + after.Misses - before.Hits - before.Misses; lookups != solvers {
		t.Fatalf("cache saw %d acquisitions, want %d", lookups, solvers)
	}
}

// funcInjector is an injector whose dynamic type Go cannot compare.
type funcInjector func(faultinject.Point) *faultinject.FaultError

func (f funcInjector) Check(p faultinject.Point) *faultinject.FaultError { return f(p) }

// TestNonComparableInjectorBypassesCache: an injector that cannot be a
// map key compiles a private program per solve instead of panicking
// inside the cache.
func TestNonComparableInjectorBypassesCache(t *testing.T) {
	o := testOptions()
	o.Fault = funcInjector(func(faultinject.Point) *faultinject.FaultError { return nil })
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	m := randomIntMatrix(rand.New(rand.NewSource(12)), 10, 100)
	for i := 0; i < 2; i++ {
		if _, err := s.Solve(m); err != nil {
			t.Fatal(err)
		}
	}
	if after := cache.Stats(); after.Hits+after.Misses != before.Hits+before.Misses {
		t.Fatalf("cache saw %d acquisitions, want none", after.Hits+after.Misses-before.Hits-before.Misses)
	}
}
