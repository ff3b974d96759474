package gpuauction

import (
	"math"
	"math/rand"
	"strings"
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
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	})
	sol, err := newSolver(t).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 5 {
		t.Fatalf("cost = %g, want 5", sol.Cost)
	}
}

func TestSolveEmptyAndSingle(t *testing.T) {
	s := newSolver(t)
	sol, err := s.Solve(lsap.NewMatrix(0))
	if err != nil || len(sol.Assignment) != 0 {
		t.Fatalf("empty: %v %v", sol, err)
	}
	m, _ := lsap.FromRows([][]float64{{3}})
	sol, err = s.Solve(m)
	if err != nil || sol.Cost != 3 {
		t.Fatalf("single: %v %v", sol, err)
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := newSolver(t)
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(7)
		m := randomIntMatrix(rng, n, 30)
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
	}
}

func TestSolveMatchesJVMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := newSolver(t)
	for _, n := range []int{16, 33, 64} {
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
	}
}

func TestSolveDetailedStats(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomIntMatrix(rng, 32, 320)
	r, err := newSolver(t).SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rounds == 0 || r.Stats.Kernels == 0 || r.Modeled <= 0 {
		t.Fatalf("stats: rounds=%d %+v", r.Rounds, r.Stats)
	}
	if r.Stats.Atomics == 0 {
		t.Fatal("bid resolution should use atomics")
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randomIntMatrix(rng, 24, 240)
	s := newSolver(t)
	r1, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cycles != r2.Stats.Cycles || r1.Rounds != r2.Rounds {
		t.Fatal("auction not deterministic")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{BlockThreads: 1 << 20}); err == nil {
		t.Fatal("oversized block accepted")
	}
}

// TestRejectsNonFinite: the entry check refuses an infinite cost by
// name. Without it the cost-range check would refuse this matrix too,
// so the error must say "finite".
func TestRejectsNonFinite(t *testing.T) {
	m := lsap.NewMatrix(2)
	m.Set(0, 0, math.Inf(1))
	if _, err := newSolver(t).Solve(m); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("+Inf entry: error %v, want one that names finite costs", err)
	}
}

func TestRoundBackstop(t *testing.T) {
	s, err := New(Options{MaxRounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	if _, err := s.Solve(randomIntMatrix(rng, 16, 1600)); err == nil {
		t.Fatal("round backstop never triggered")
	}
}

// Property: the GPU auction agrees with JV on random integer matrices.
func TestSolveProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test in -short mode")
	}
	s := newSolver(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(28)
		m := randomIntMatrix(rng, n, 5+rng.Intn(20*n))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
