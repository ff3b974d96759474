// Package cpuhung provides the CPU baselines from the paper's
// evaluation: a fast sequential Hungarian algorithm (the
// Jonker–Volgenant shortest-augmenting-path variant, matching the
// "fast CPU implementation" the paper benchmarks against), a textbook
// Munkres implementation that mirrors the six steps HunIPU
// parallelises, and an auction-algorithm extra baseline.
//
// Unlike the IPU and GPU solvers, these run natively and report real
// wall-clock time in the experiment harness.
package cpuhung

import (
	"context"
	"fmt"
	"math"

	"hunipu/internal/lsap"
)

// JV is the O(n³) shortest-augmenting-path Hungarian algorithm
// (Jonker–Volgenant style). It maintains dual potentials throughout, so
// its solutions carry an optimality certificate.
type JV struct{}

// Name implements lsap.Solver.
func (JV) Name() string { return "CPU-JV" }

// Solve implements lsap.Solver.
func (s JV) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	return s.SolveContext(context.Background(), c)
}

// SolveContext implements lsap.ContextSolver: cancellation and deadline
// expiry are checked once per augmenting-path step, so a cancelled
// solve stops within O(n) work.
func (JV) SolveContext(ctx context.Context, c *lsap.Matrix) (*lsap.Solution, error) {
	n := c.N
	if n == 0 {
		return &lsap.Solution{Assignment: lsap.Assignment{}, Potentials: &lsap.Potentials{}}, nil
	}
	inf := math.Inf(1)

	// 1-indexed arrays, column 0 is the virtual start column.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j]: row matched to column j (0 = unmatched)
	way := make([]int, n+1) // way[j]: previous column on the alternating path

	minv := make([]float64, n+1)
	used := make([]bool, n+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := range minv {
			minv[j] = inf
			used[j] = false
		}
		for {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			default:
			}
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := -1
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := c.At(i0-1, j-1) - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			if j1 < 0 || math.IsInf(delta, 1) {
				return nil, fmt.Errorf("cpuhung: internal error, no augmenting path from row %d", i)
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}

	a := make(lsap.Assignment, n)
	for j := 1; j <= n; j++ {
		if p[j] == 0 {
			return nil, fmt.Errorf("cpuhung: internal error, column %d unmatched", j)
		}
		a[p[j]-1] = j - 1
	}
	pot := &lsap.Potentials{U: make([]float64, n), V: make([]float64, n)}
	for i := 1; i <= n; i++ {
		pot.U[i-1] = u[i]
	}
	for j := 1; j <= n; j++ {
		pot.V[j-1] = v[j]
	}
	return &lsap.Solution{Assignment: a, Cost: a.Cost(c), Potentials: pot}, nil
}
