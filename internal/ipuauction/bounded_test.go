package ipuauction

import (
	"errors"
	"math/rand"
	"testing"

	"hunipu/internal/cpuhung"
	"hunipu/internal/lsap"
)

// TestBoundedCertified: the on-device auction honours the bounded
// contract — the readback is certified within ε by host-side
// price-derived duals, or the solve fails typed.
func TestBoundedCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, eps := range []float64{0.01, 0.1} {
		for trial := 0; trial < 6; trial++ {
			n := 2 + rng.Intn(12)
			m := randomIntMatrix(rng, n, 1000)
			s, err := New(func() Options { o := testOptions(); o.Epsilon = eps; return o }())
			if err != nil {
				t.Fatal(err)
			}
			sol, err := s.Solve(m)
			if err != nil {
				var ge *lsap.GapError
				if errors.As(err, &ge) {
					continue // typed failure is within contract
				}
				t.Fatalf("ε=%g trial %d: %v", eps, trial, err)
			}
			if sol.Potentials == nil || sol.Gap > eps {
				t.Fatalf("ε=%g trial %d: gap %g, potentials %v", eps, trial, sol.Gap, sol.Potentials)
			}
			if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *sol.Potentials, eps); err != nil {
				t.Fatalf("ε=%g trial %d: uncertified: %v", eps, trial, err)
			}
		}
	}
}

// TestBoundedFewerSupersteps: the raised ε floor must shorten the
// on-device schedule relative to the exact run.
func TestBoundedFewerSupersteps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := randomIntMatrix(rng, 24, 1000)
	exact, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	re, err := exact.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := New(func() Options { o := testOptions(); o.Epsilon = 0.25; return o }())
	if err != nil {
		t.Fatal(err)
	}
	rl, err := loose.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Stats.Supersteps >= re.Stats.Supersteps {
		t.Fatalf("bounded run took %d supersteps, exact took %d — the ε floor did not shorten the schedule",
			rl.Stats.Supersteps, re.Stats.Supersteps)
	}
}

// TestExactKeepsCertificate: Epsilon = 0 keeps exact optimality on
// integer matrices and now returns its dual certificate.
func TestExactKeepsCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m := randomIntMatrix(rng, 10, 200)
	s, err := New(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != ref.Cost {
		t.Fatalf("cost %g ≠ optimum %g", sol.Cost, ref.Cost)
	}
	if sol.Potentials == nil {
		t.Fatal("no certificate attached")
	}
	if err := lsap.VerifyFeasiblePotentials(m, *sol.Potentials, 1e-9); err != nil {
		t.Fatal(err)
	}
}

// TestWarmPricesOnDevice: a warm price tensor is uploaded and the
// result stays certified.
func TestWarmPricesOnDevice(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := randomIntMatrix(rng, 8, 500)
	s1, err := New(func() Options { o := testOptions(); o.Epsilon = 0.05; return o }())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	warm := make([]float64, m.N)
	for j, v := range r1.Solution.Potentials.V {
		warm[j] = -v
	}
	s2, err := New(func() Options { o := testOptions(); o.Epsilon = 0.05; o.WarmPrices = warm; return o }())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := lsap.VerifyOptimalWithBound(m, r2.Solution.Assignment, *r2.Solution.Potentials, 0.05); err != nil {
		t.Fatalf("warm solve uncertified: %v", err)
	}
}

func TestEpsilonOptionValidation(t *testing.T) {
	if _, err := New(Options{Epsilon: -1}); err == nil {
		t.Fatal("negative Epsilon accepted")
	}
}
