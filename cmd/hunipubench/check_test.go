package main

import (
	"context"
	"strings"
	"testing"

	"hunipu"
)

// checkInstance is the 3×3 example of the hunipu package documentation:
// optimum 5 at assignment [1, 0, 2].
func checkInstance(t *testing.T) instance {
	t.Helper()
	costs := [][]float64{{4, 1, 3}, {2, 0, 5}, {3, 2, 2}}
	opt, err := optimum(context.Background(), costs)
	if err != nil || opt != 5 {
		t.Fatalf("optimum = %g, %v; want 5", opt, err)
	}
	return instance{costs: costs, opt: opt}
}

func TestCertifyAcceptsCorrectAnswers(t *testing.T) {
	inst := checkInstance(t)
	if err := certify(inst.costs, inst.opt, []int{1, 0, 2}, 5, 0, 0); err != nil {
		t.Errorf("optimal exact answer rejected: %v", err)
	}
	// [0, 1, 2] costs 6: within ε=0.2 of 5 under lsap.NormalizedGap.
	if err := certify(inst.costs, inst.opt, []int{0, 1, 2}, 6, 0.15, 0.2); err != nil {
		t.Errorf("bounded answer within ε rejected: %v", err)
	}
}

func TestCertifyRejectsWrongAnswers(t *testing.T) {
	inst := checkInstance(t)
	for _, c := range []struct {
		name       string
		assignment []int
		cost, gap  float64
		eps        float64
		want       string
	}{
		{"duplicate column", []int{1, 1, 2}, 3, 0, 0, "not a permutation"},
		{"column out of range", []int{1, 0, 3}, 5, 0, 0, "not a permutation"},
		{"short assignment", []int{1, 0}, 3, 0, 0, "covers 2 rows"},
		{"cost misreported", []int{1, 0, 2}, 4, 0, 0, "reported cost"},
		{"exact but suboptimal", []int{0, 1, 2}, 6, 0, 0, "optimum is 5"},
		{"reported gap over ε", []int{0, 1, 2}, 6, 0.3, 0.2, "certified gap"},
		{"true gap over ε", []int{0, 1, 2}, 6, 0.01, 0.1, "gap to the optimum"},
	} {
		err := certify(inst.costs, inst.opt, c.assignment, c.cost, c.gap, c.eps)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: certify = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

// TestRecordAnswer checks the op bookkeeping on a real bounded solve.
func TestRecordAnswer(t *testing.T) {
	inst := checkInstance(t)
	res, err := hunipu.Solve(inst.costs, hunipu.WithQuality(hunipu.Bounded(0.05)))
	if err != nil {
		t.Fatal(err)
	}
	var o op
	o.recordAnswer(&inst, res.Assignment, res.Cost, res.Gap, res.Quality.Epsilon())
	if !o.certified || !o.bounded || o.ratio < 1 || o.violation != "" {
		t.Errorf("bounded solve recorded as %+v", o)
	}
	var bad op
	bad.recordAnswer(&inst, []int{0, 1, 2}, 6, 0, 0)
	if bad.certified || bad.violation == "" {
		t.Errorf("suboptimal exact answer recorded as %+v", bad)
	}
}
