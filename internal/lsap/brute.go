package lsap

import (
	"errors"
	"fmt"
	"math"
)

// BruteForce is the O(n!) exact solver used as the test oracle for
// small instances. It refuses sizes above MaxBruteForceN.
type BruteForce struct{}

// MaxBruteForceN bounds the oracle to keep n! enumeration tractable.
const MaxBruteForceN = 10

// Name implements Solver.
func (BruteForce) Name() string { return "BruteForce" }

// Solve enumerates all permutations and returns the cheapest perfect
// matching. Every entry must be finite, and so must the cost of some
// matching: no comparison can pick among infinite or NaN costs.
func (BruteForce) Solve(c *Matrix) (*Solution, error) {
	n := c.N
	if n > MaxBruteForceN {
		return nil, fmt.Errorf("lsap: brute force limited to n ≤ %d, got %d", MaxBruteForceN, n)
	}
	for k, v := range c.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("lsap: brute force needs finite costs, C[%d][%d] = %g", k/n, k%n, v)
		}
	}
	if n == 0 {
		return &Solution{Assignment: Assignment{}, Cost: 0}, nil
	}
	best := math.Inf(1)
	bestPerm := make([]int, n)
	perm := make([]int, n)
	used := make([]bool, n)
	found := false

	// suffix[i] is a lower bound on the cost rows i..n-1 can still add
	// (sum of per-row minima, ignoring the column constraint). Pruning
	// on the partial cost alone is unsound once entries can be
	// negative: a prefix above best may still win by taking negative
	// edges later.
	suffix := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		rowMin := math.Inf(1)
		for j := 0; j < n; j++ {
			rowMin = min(rowMin, c.At(i, j))
		}
		suffix[i] = suffix[i+1] + rowMin
	}

	var rec func(i int, cost float64)
	rec = func(i int, cost float64) {
		if cost+suffix[i] >= best {
			return
		}
		if i == n {
			best = cost
			copy(bestPerm, perm)
			found = true
			return
		}
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			perm[i] = j
			rec(i+1, cost+c.At(i, j))
			used[j] = false
		}
	}
	rec(0, 0)
	if !found {
		return nil, errors.New("lsap: brute force: every matching's cost overflows float64")
	}
	a := make(Assignment, n)
	copy(a, bestPerm)
	return &Solution{Assignment: a, Cost: best}, nil
}
