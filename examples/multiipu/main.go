// Multi-IPU sharding: the paper notes that "on a multi-IPU architecture
// the exchange fabric extends to all tiles on all of the IPUs". This
// example solves one workload with HunIPU compiled over fabrics of one,
// two, and four simulated Mk2 chips (hunipu.WithShards), proves every
// answer optimal from the solver's own dual certificate — no trusted
// reference solver — and then kills a chip mid-solve to show the solve
// moving onto the survivors without losing the optimum.
//
// Run with: go run ./examples/multiipu
package main

import (
	"fmt"
	"log"

	"hunipu"
	"hunipu/internal/core"
	"hunipu/internal/datasets"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
)

// chip is one fabric member: a shrunken Mk2 so the workload actually
// spans chips (a full 1472-tile Mk2 swallows n=128 rows on one chip).
func chip() hunipu.Option {
	cfg := ipu.MK2()
	cfg.TilesPerIPU = 96
	return hunipu.WithIPUOptions(core.Options{Config: cfg})
}

// certify proves a result optimal from its own dual potentials.
func certify(m *lsap.Matrix, r *hunipu.Result) {
	if r.Duals == nil {
		log.Fatal("result carries no dual certificate")
	}
	p := lsap.Potentials{U: r.Duals.U, V: r.Duals.V}
	if err := lsap.VerifyOptimal(m, r.Assignment, p, 1e-9); err != nil {
		log.Fatalf("certificate rejected: %v", err)
	}
}

func main() {
	const (
		n = 128
		k = 500
	)
	m, err := datasets.Gaussian(n, k, 7)
	if err != nil {
		log.Fatal(err)
	}
	costs := make([][]float64, n)
	for i := range costs {
		costs[i] = m.Data[i*n : (i+1)*n]
	}
	fmt.Printf("workload: %d×%d Gaussian, range [1,%d]\n\n", n, n, k*n)
	fmt.Printf("%-8s %-16s %-16s %-12s %s\n", "chips", "modeled cycles", "exchange cycles", "supersteps", "certificate")

	var refCost float64
	for _, chips := range []int{1, 2, 4} {
		r, err := hunipu.Solve(costs, chip(), hunipu.WithShards(chips))
		if err != nil {
			log.Fatal(err)
		}
		certify(m, r)
		if chips == 1 {
			refCost = r.Cost
		} else if r.Cost != refCost {
			log.Fatalf("cost diverged across fabrics: %g vs %g", r.Cost, refCost)
		}
		d := r.Report.Attempts[0].IPUDetail
		fmt.Printf("%-8d %-16d %-16d %-12d optimal, cost %.0f\n",
			chips, d.Stats.TotalCycles(), d.Stats.ExchangeCycles, d.Stats.Supersteps, r.Cost)
	}
	fmt.Println("\nsame certified optimal cost on every fabric:", refCost)

	// The robustness half: a 4-chip fabric loses chip 2 at superstep
	// 400. The solve drops the chip, moves its newest checkpoint onto the
	// program compiled for the three survivors, and finishes — with the
	// same certified optimum.
	r, err := hunipu.Solve(costs, chip(), hunipu.WithShards(4),
		hunipu.WithFaultSchedule("deviceloss at=400 device=2"))
	if err != nil {
		log.Fatalf("fabric did not survive the chip loss: %v", err)
	}
	certify(m, r)
	if r.Cost != refCost {
		log.Fatalf("post-loss cost %g differs from fault-free optimum %g", r.Cost, refCost)
	}
	att := r.Report.Attempts[0]
	f := att.ShardDetail
	if len(f.Lost) != 1 || f.Lost[0] != 2 {
		log.Fatalf("lost chips %v, want [2]", f.Lost)
	}
	d := att.IPUDetail
	fmt.Println("\nchip-loss drill on the 4-chip fabric:")
	fmt.Printf("  lost chip %d, moved %d time(s) onto the %d survivors\n", f.Lost[0], f.Reshards, f.Survivors)
	fmt.Printf("  finished on %d of %d chips in %d modeled cycles over %d supersteps: same certified optimum, cost %.0f\n",
		f.Survivors, f.Devices, d.Stats.TotalCycles(), d.Stats.Supersteps, r.Cost)
}
