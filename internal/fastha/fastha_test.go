package fastha

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hunipu/internal/cpuhung"
	"hunipu/internal/lsap"
)

func newSolver(t *testing.T) *Solver {
	t.Helper()
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randomIntMatrix(rng *rand.Rand, n, hi int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(1 + rng.Intn(hi))
	}
	return m
}

func TestSolveTiny(t *testing.T) {
	m, _ := lsap.FromRows([][]float64{
		{4, 1},
		{2, 8},
	})
	sol, err := newSolver(t).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 3 {
		t.Fatalf("cost = %g, want 3", sol.Cost)
	}
}

func TestSolveRejectsNonPow2(t *testing.T) {
	if _, err := newSolver(t).Solve(lsap.NewMatrix(5)); err == nil {
		t.Fatal("non-power-of-two size must be rejected (published FastHA restriction)")
	}
}

func TestSolveRejectsNonFinite(t *testing.T) {
	m := lsap.NewMatrix(2)
	m.Set(1, 1, math.Inf(1))
	if _, err := newSolver(t).Solve(m); err == nil {
		t.Fatal("+Inf entry accepted")
	}
}

func TestSolveEmpty(t *testing.T) {
	sol, err := newSolver(t).Solve(lsap.NewMatrix(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Assignment) != 0 {
		t.Fatal("non-empty assignment")
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newSolver(t)
	for trial := 0; trial < 30; trial++ {
		n := []int{1, 2, 4, 8}[rng.Intn(4)]
		m := randomIntMatrix(rng, n, 40)
		want, err := (lsap.BruteForce{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("trial %d n=%d: %v", trial, n, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("trial %d n=%d: cost %g, want %g", trial, n, got.Cost, want.Cost)
		}
		certifyOptimal(t, m, got)
	}
}

// certifyOptimal proves sol optimal for m from LP duals: FastHA keeps
// no potentials, so feasible duals are borrowed from JV and the
// weak-duality bound certifies sol's matching even when ties make it
// differ from JV's.
func certifyOptimal(t *testing.T, m *lsap.Matrix, sol *lsap.Solution) {
	t.Helper()
	ref, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatalf("reference dual solve: %v", err)
	}
	if err := lsap.VerifyOptimal(m, ref.Assignment, *ref.Potentials, 1e-9); err != nil {
		t.Fatalf("reference certificate: %v", err)
	}
	if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *ref.Potentials, 1e-9); err != nil {
		t.Fatalf("optimality certificate failed: %v", err)
	}
}

func TestSolveMatchesJVMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := newSolver(t)
	for _, n := range []int{16, 32, 64, 128} {
		m := randomIntMatrix(rng, n, 10*n)
		want, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := got.Assignment.Validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Cost != want.Cost {
			t.Fatalf("n=%d: cost %g, want %g", n, got.Cost, want.Cost)
		}
		certifyOptimal(t, m, got)
	}
}

func TestSolvePaddedMatchesJV(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := newSolver(t)
	for _, n := range []int{3, 5, 9, 20, 33, 100} {
		m := randomIntMatrix(rng, n, 500)
		want, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SolvePadded(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := got.Solution.Assignment.Validate(n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Solution.Cost != want.Cost {
			t.Fatalf("n=%d: cost %g, want %g", n, got.Solution.Cost, want.Cost)
		}
		certifyOptimal(t, m, got.Solution)
	}
}

func TestSolvePaddedAdversarial(t *testing.T) {
	// The case where naive zero-padding breaks: cheap row hides an
	// expensive forced match.
	m, _ := lsap.FromRows([][]float64{
		{1, 1, 0},
		{1, 100, 0},
		{0, 0, 0},
	})
	want, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newSolver(t).SolvePadded(m)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solution.Cost != want.Cost {
		t.Fatalf("cost %g, want %g", got.Solution.Cost, want.Cost)
	}
}

func TestSolveDetailedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomIntMatrix(rng, 64, 640)
	r, err := newSolver(t).SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Kernels < 10 {
		t.Fatalf("FastHA should launch many kernels, got %d", r.Stats.Kernels)
	}
	if r.Stats.LaunchCycles == 0 || r.Stats.Cycles == 0 {
		t.Fatalf("stats = %+v", r.Stats)
	}
	if r.Modeled <= 0 {
		t.Fatal("no modeled time")
	}
}

func TestSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomIntMatrix(rng, 32, 77)
	s := newSolver(t)
	r1, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cycles != r2.Stats.Cycles {
		t.Fatalf("cycles differ: %d vs %d", r1.Stats.Cycles, r2.Stats.Cycles)
	}
	for i := range r1.Solution.Assignment {
		if r1.Solution.Assignment[i] != r2.Solution.Assignment[i] {
			t.Fatal("assignments differ")
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{BlockThreads: -1}); err == nil {
		t.Fatal("negative BlockThreads accepted")
	}
	if _, err := New(Options{BlockThreads: 100000}); err == nil {
		t.Fatal("oversized BlockThreads accepted")
	}
}

func TestIterationBackstop(t *testing.T) {
	s, err := New(Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A random instance at this size needs far more than one inner
	// iteration; the backstop must fail the solve rather than loop.
	rng := rand.New(rand.NewSource(99))
	m := randomIntMatrix(rng, 32, 1000)
	r, err := s.SolveDetailed(m)
	if err == nil {
		t.Fatal("iteration backstop never triggered")
	}
	// The failed solve still reports what it spent on the device.
	if r == nil || r.Solution != nil || r.Modeled <= 0 {
		t.Fatalf("failed solve returned %+v, want its Result with Modeled > 0 and no Solution", r)
	}
}

// Property: FastHA agrees with JV on random power-of-two matrices.
func TestSolveProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	s := newSolver(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := []int{2, 4, 8, 16, 32}[rng.Intn(5)]
		m := randomIntMatrix(rng, n, 5+rng.Intn(30*n))
		want, err := (cpuhung.JV{}).Solve(m)
		if err != nil {
			return false
		}
		got, err := s.Solve(m)
		if err != nil {
			return false
		}
		return got.Assignment.Validate(n) == nil && got.Cost == want.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
