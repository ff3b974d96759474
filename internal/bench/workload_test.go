package bench

// Workload-level integration: every solver agrees on the paper's
// actual synthetic generators across the value-range grid.

import (
	"testing"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/datasets"
	"hunipu/internal/fastha"
	"hunipu/internal/gpuauction"
	"hunipu/internal/ipu"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
)

func TestAllSolversOnPaperWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("workload sweep in -short mode")
	}
	smallIPU := ipu.MK2()
	smallIPU.TilesPerIPU = 64
	hun, err := core.New(core.Options{Config: smallIPU})
	if err != nil {
		t.Fatal(err)
	}
	fha, err := fastha.New(fastha.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ga, err := gpuauction.New(gpuauction.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ia, err := ipuauction.New(ipuauction.Options{Config: smallIPU})
	if err != nil {
		t.Fatal(err)
	}
	solvers := []lsap.Solver{hun, fha, ga, ia,
		cpuhung.JV{}, cpuhung.Munkres{}, cpuhung.Auction{}}

	for _, gen := range []struct {
		name string
		fn   func(int, int, int64) (*lsap.Matrix, error)
	}{
		{"gaussian", datasets.Gaussian},
		{"uniform", datasets.Uniform},
	} {
		for _, k := range []int{1, 100, 10000} {
			n := 32 // power of two so FastHA runs unpadded
			m, err := gen.fn(n, k, int64(k)+7)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := (cpuhung.JV{}).Solve(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range solvers {
				got, err := s.Solve(m)
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", s.Name(), gen.name, k, err)
				}
				if got.Cost != ref.Cost {
					t.Fatalf("%s %s k=%d: cost %g, want %g", s.Name(), gen.name, k, got.Cost, ref.Cost)
				}
			}
		}
	}
}
