package main

import (
	"fmt"
	"math"

	"hunipu/internal/lsap"
)

// certify checks one answer against its instance and the instance's
// reference optimum. The assignment must be a permutation whose cost
// under costs equals the reported cost. With eps = 0 (an exact answer)
// that cost must be the optimum; otherwise both the answer's own
// certified gap and its gap to the optimum must be at most eps.
func certify(costs [][]float64, opt float64, assignment []int, cost, gap, eps float64) error {
	n := len(costs)
	if len(assignment) != n {
		return fmt.Errorf("assignment covers %d rows, want %d", len(assignment), n)
	}
	used := make([]bool, n)
	var sum float64
	for i, j := range assignment {
		if j < 0 || j >= n || used[j] {
			return fmt.Errorf("row %d assigned column %d: not a permutation", i, j)
		}
		used[j] = true
		sum += costs[i][j]
	}
	tol := 1e-9 * (1 + math.Abs(opt))
	switch {
	case math.Abs(sum-cost) > tol:
		return fmt.Errorf("reported cost %g, assignment costs %g", cost, sum)
	case sum < opt-tol:
		return fmt.Errorf("cost %g is below the reference optimum %g", sum, opt)
	case eps == 0 && sum > opt+tol:
		return fmt.Errorf("exact answer costs %g, optimum is %g", sum, opt)
	case gap > eps+1e-12:
		return fmt.Errorf("certified gap %g exceeds ε=%g", gap, eps)
	}
	if g := lsap.NormalizedGap(sum, opt); g > eps+1e-12 {
		return fmt.Errorf("gap to the optimum %g exceeds ε=%g", g, eps)
	}
	return nil
}

// recordAnswer certifies an answer to inst served at tier ε = eps and
// records the outcome on o.
func (o *op) recordAnswer(inst *instance, assignment []int, cost, gap, eps float64) {
	o.gap, o.bounded = gap, eps > 0
	if err := certify(inst.costs, inst.opt, assignment, cost, gap, eps); err != nil {
		o.violation = err.Error()
		return
	}
	o.certified = true
	o.ratio = cost / inst.opt
}
