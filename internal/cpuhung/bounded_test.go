package cpuhung

import (
	"context"
	"math/rand"
	"testing"

	"hunipu/internal/lsap"
)

func randomMatrix(rng *rand.Rand, n, hi int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(1 + rng.Intn(hi))
	}
	return m
}

// TestAuctionBoundedCertified: every bounded solve must come back with
// a certificate that VerifyOptimalWithBound accepts at the requested ε,
// a Gap no larger than ε, and a cost within ε·(1+|bound|) of optimal.
func TestAuctionBoundedCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, eps := range []float64{0.001, 0.01, 0.1, 0.5} {
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(20)
			m := randomMatrix(rng, n, 1000)
			sol, err := (Auction{Epsilon: eps}).Solve(m)
			if err != nil {
				t.Fatalf("ε=%g trial %d: %v", eps, trial, err)
			}
			if sol.Potentials == nil {
				t.Fatalf("ε=%g trial %d: no certificate attached", eps, trial)
			}
			if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *sol.Potentials, eps); err != nil {
				t.Fatalf("ε=%g trial %d: uncertified: %v", eps, trial, err)
			}
			if sol.Gap > eps {
				t.Fatalf("ε=%g trial %d: reported gap %g exceeds ε", eps, trial, sol.Gap)
			}
			ref, err := (JV{}).Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			if bound := sol.Potentials.DualObjective(); sol.Cost-ref.Cost > eps*(1+bound)+1e-9 {
				t.Fatalf("ε=%g trial %d: cost %g vs optimum %g breaks the promised bound", eps, trial, sol.Cost, ref.Cost)
			}
		}
	}
}

// TestAuctionExactStillOptimal: Epsilon = 0 keeps today's exact
// behavior on integer matrices, now with a certificate attached.
func TestAuctionExactStillOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(15)
		m := randomMatrix(rng, n, 100)
		sol, err := (Auction{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := (JV{}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Cost != ref.Cost {
			t.Fatalf("trial %d: cost %g ≠ optimum %g", trial, sol.Cost, ref.Cost)
		}
		if sol.Potentials == nil {
			t.Fatalf("trial %d: exact auction no longer attaches its certificate", trial)
		}
		if err := lsap.VerifyFeasiblePotentials(m, *sol.Potentials, 1e-9); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestAuctionWarmPrices: warm-started solves stay correct (the
// certificate never depends on the prior) and a self-warm-start — the
// prices implied by the solve's own duals — terminates quickly.
func TestAuctionWarmPrices(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(12)
		m := randomMatrix(rng, n, 500)
		first, err := (Auction{Epsilon: 0.05}).Solve(m)
		if err != nil {
			t.Fatal(err)
		}
		warm := make([]float64, n)
		for j, v := range first.Potentials.V {
			warm[j] = -v
		}
		sol, err := (Auction{Epsilon: 0.05, WarmPrices: warm}).Solve(m)
		if err != nil {
			t.Fatalf("trial %d: warm solve: %v", trial, err)
		}
		if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *sol.Potentials, 0.05); err != nil {
			t.Fatalf("trial %d: warm solve uncertified: %v", trial, err)
		}
		// Garbage priors must not break anything either.
		garbage := make([]float64, n)
		for j := range garbage {
			garbage[j] = rng.NormFloat64() * 1000
		}
		sol, err = (Auction{Epsilon: 0.05, WarmPrices: garbage}).Solve(m)
		if err != nil {
			t.Fatalf("trial %d: garbage-warm solve: %v", trial, err)
		}
		if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *sol.Potentials, 0.05); err != nil {
			t.Fatalf("trial %d: garbage-warm solve uncertified: %v", trial, err)
		}
	}
}

func TestAuctionValidation(t *testing.T) {
	m := lsap.NewMatrix(3)
	if _, err := (Auction{Epsilon: -1}).Solve(m); err == nil {
		t.Fatal("negative Epsilon accepted")
	}
	if _, err := (Auction{WarmPrices: []float64{1}}).Solve(m); err == nil {
		t.Fatal("short warm prices accepted")
	}
	// A benefit range of +Inf once panicked the bidder with index −1.
	over, err := lsap.FromRows([][]float64{{1e308, -1e308}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Auction{}).Solve(over); err == nil {
		t.Fatal("overflowing cost range accepted")
	}
}

func TestAuctionContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := randomMatrix(rand.New(rand.NewSource(24)), 20, 100)
	if _, err := (Auction{}).SolveContext(ctx, m); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
