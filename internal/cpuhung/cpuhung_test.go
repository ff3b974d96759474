package cpuhung

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hunipu/internal/lsap"
)

var allSolvers = []lsap.Solver{JV{}, Munkres{}, Auction{}}

func randomIntMatrix(rng *rand.Rand, n, hi int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(1 + rng.Intn(hi))
	}
	return m
}

func TestSolversMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	oracle := lsap.BruteForce{}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		m := randomIntMatrix(rng, n, 50)
		want, err := oracle.Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range allSolvers {
			got, err := s.Solve(m)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if err := got.Assignment.Validate(n); err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if got.Cost != want.Cost {
				t.Fatalf("%s: cost = %g, want %g (n=%d trial=%d)", s.Name(), got.Cost, want.Cost, n, trial)
			}
		}
	}
}

func TestSolversAgreeLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{16, 33, 64, 100} {
		m := randomIntMatrix(rng, n, 1000)
		ref, err := (JV{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Potentials == nil {
			t.Fatal("JV should produce potentials")
		}
		if err := lsap.VerifyOptimal(m, ref.Assignment, *ref.Potentials, 1e-9); err != nil {
			t.Fatalf("JV certificate invalid: %v", err)
		}
		for _, s := range allSolvers[1:] {
			got, err := s.Solve(m)
			if err != nil {
				t.Fatalf("%s n=%d: %v", s.Name(), n, err)
			}
			if got.Cost != ref.Cost {
				t.Fatalf("%s n=%d: cost = %g, want %g", s.Name(), n, got.Cost, ref.Cost)
			}
		}
	}
}

func TestJVIdentityMatrix(t *testing.T) {
	// Diagonal of zeros, ones elsewhere: optimum is the identity, cost 0.
	n := 5
	m := lsap.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.Set(i, j, 1)
			}
		}
	}
	for _, s := range allSolvers {
		sol, err := s.Solve(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Cost != 0 {
			t.Fatalf("%s: cost = %g, want 0", s.Name(), sol.Cost)
		}
	}
}

// TestJVInfeasible: when no augmenting path has a finite length, JV
// returns an error instead of stepping to a column it never found.
// Validated inputs cannot get here; +Inf entries can.
func TestJVInfeasible(t *testing.T) {
	m, _ := lsap.FromRows([][]float64{
		{math.Inf(1), 1},
		{math.Inf(1), 2},
	})
	if _, err := (JV{}).Solve(m); err == nil {
		t.Fatal("expected an error")
	}
}

func TestEmptyMatrix(t *testing.T) {
	for _, s := range allSolvers {
		sol, err := s.Solve(lsap.NewMatrix(0))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(sol.Assignment) != 0 {
			t.Fatalf("%s: non-empty assignment for empty matrix", s.Name())
		}
	}
}

func TestSingleElement(t *testing.T) {
	m, _ := lsap.FromRows([][]float64{{7}})
	for _, s := range allSolvers {
		sol, err := s.Solve(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Cost != 7 || sol.Assignment[0] != 0 {
			t.Fatalf("%s: sol = %+v", s.Name(), sol)
		}
	}
}

func TestDuplicateValues(t *testing.T) {
	// All-equal matrix: any permutation is optimal with cost n·v.
	n := 9
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = 3
	}
	for _, s := range allSolvers {
		sol, err := s.Solve(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if sol.Cost != float64(3*n) {
			t.Fatalf("%s: cost = %g, want %d", s.Name(), sol.Cost, 3*n)
		}
	}
}

// Property: for random integer matrices the three solvers agree and the
// JV certificate always verifies.
func TestSolverAgreementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		m := randomIntMatrix(rng, n, 10+rng.Intn(500))
		jv, err := (JV{}).Solve(m)
		if err != nil {
			return false
		}
		if lsap.VerifyOptimal(m, jv.Assignment, *jv.Potentials, 1e-9) != nil {
			return false
		}
		mk, err := (Munkres{}).Solve(m)
		if err != nil || mk.Cost != jv.Cost {
			return false
		}
		au, err := (Auction{}).Solve(m)
		return err == nil && au.Cost == jv.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Regression: matrices where the greedy initial matching is maximally
// misleading (needs many augmentations).
func TestAdversarialDiagonal(t *testing.T) {
	// C[i][j] = (i+1)*(j+1): optimum pairs large with small (reversal).
	n := 12
	m := lsap.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, float64((i+1)*(j+1)))
		}
	}
	jv, err := (JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range allSolvers[1:] {
		got, err := s.Solve(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got.Cost != jv.Cost {
			t.Fatalf("%s: cost = %g, want %g", s.Name(), got.Cost, jv.Cost)
		}
		// The optimal matching on this matrix is the anti-diagonal.
		for i, j := range got.Assignment {
			if j != n-1-i {
				t.Fatalf("%s: row %d → col %d, want %d", s.Name(), i, j, n-1-i)
			}
		}
	}
}

func BenchmarkJV(b *testing.B) {
	for _, n := range []int{64, 256} {
		rng := rand.New(rand.NewSource(1))
		m := randomIntMatrix(rng, n, 10*n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (JV{}).Solve(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMunkres(b *testing.B) {
	for _, n := range []int{64, 256} {
		rng := rand.New(rand.NewSource(1))
		m := randomIntMatrix(rng, n, 10*n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (Munkres{}).Solve(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 64:
		return "n=64"
	case 256:
		return "n=256"
	default:
		return "n"
	}
}

func TestMunkresZeroMatrix(t *testing.T) {
	// All-zero costs: any permutation is optimal at cost 0; the greedy
	// initial matching should already be perfect (no augmentation).
	n := 15
	m := lsap.NewMatrix(n)
	sol, err := (Munkres{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Fatalf("cost = %g", sol.Cost)
	}
}

func TestPermutationMatrixRecovered(t *testing.T) {
	// Cost 0 on a hidden permutation, 1 elsewhere: every solver must
	// recover the permutation exactly.
	rng := rand.New(rand.NewSource(63))
	n := 25
	perm := rng.Perm(n)
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = 1
	}
	for i, j := range perm {
		m.Set(i, j, 0)
	}
	for _, s := range allSolvers {
		sol, err := s.Solve(m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for i, j := range sol.Assignment {
			if j != perm[i] {
				t.Fatalf("%s: row %d → %d, want %d", s.Name(), i, j, perm[i])
			}
		}
	}
}
