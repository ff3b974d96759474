// Package conformance is the cross-solver correctness substrate of the
// repository: every LSAP solver — HunIPU on the simulated IPU, the GPU
// baselines on the SIMT simulator, and the native CPU solvers — is
// registered behind the one lsap.Solver interface and exercised against
//
//   - a family of seeded adversarial generators (ties, degeneracy,
//     near-infinite magnitudes, rectangular padding, maximisation
//     flips; see generators.go),
//   - a metamorphic property engine asserting how the optimal cost must
//     transform under row/column permutation, transposition, additive
//     row shifts, scalar scaling, dummy padding, and min↔max duality
//     (see metamorphic.go), and
//   - a dual-certificate oracle that proves each result optimal from
//     feasible LP duals rather than by comparison against a trusted
//     solver (see oracle.go).
//
// The paper's evaluation hinges on all implementations computing the
// same optimum; this package is where that claim is enforced before any
// performance PR lands. All generated workloads are integer-valued, the
// repository's convention, so every registered solver — including the
// ε-scaling auctions, which are exact only on integer costs — must
// agree bit-for-bit on the optimal cost.
package conformance

import (
	"fmt"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/fastha"
	"hunipu/internal/gpuauction"
	"hunipu/internal/ipu"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// Entry describes one registered solver and the constraints the
// harness must respect when driving it.
type Entry struct {
	// Name is the registry key; it matches the solver's Name().
	Name string
	// New constructs a fresh solver instance. Each conformance run
	// builds its own instances, so runs never share mutable state.
	New func() (lsap.Solver, error)
	// MaxN caps the instance size this solver is asked to handle
	// (0 = no cap). Only the factorial brute-force oracle needs one.
	MaxN int
	// Certifying reports whether the solver emits its own dual
	// potentials; the oracle then checks complementary slackness
	// directly instead of borrowing duals.
	Certifying bool
}

// smallIPU is the reduced simulated device used throughout the test
// suites: Mk2 proportions with 64 tiles, so graph compilation stays
// fast at conformance sizes.
func smallIPU() ipu.Config {
	cfg := ipu.MK2()
	cfg.TilesPerIPU = 64
	return cfg
}

// fabricIPU builds HunIPU on k chips of smallIPU that survives chip
// losses down to one, drawing on its own program cache: a sweep's
// survivor programs never leak into another run.
func fabricIPU(k int, o core.Options) (*core.Solver, error) {
	o.Config = smallIPU()
	o.Config.IPUs = k
	o.MinIPUs = 1
	o.Cache = core.NewProgramCache(core.DefaultCacheCapacity)
	return core.New(o)
}

// paddedFastHA adapts FastHA's power-of-two restriction to the common
// Solver interface the way the paper does: zero-padding (in cost space,
// max+1 padding) to the next 2^m via SolvePadded.
type paddedFastHA struct{ s *fastha.Solver }

func (p paddedFastHA) Name() string { return p.s.Name() }

func (p paddedFastHA) Solve(c *lsap.Matrix) (*lsap.Solution, error) {
	r, err := p.s.SolvePadded(c)
	if err != nil {
		return nil, err
	}
	return r.Solution, nil
}

// Registry returns every solver in the repository. Adding a solver to
// the codebase means adding it here; TestRegistryComplete pins the
// expected set so accidental drops fail loudly.
func Registry() []Entry {
	return []Entry{
		{
			Name:       "CPU-JV",
			New:        func() (lsap.Solver, error) { return cpuhung.JV{}, nil },
			Certifying: true,
		},
		{
			Name: "CPU-Munkres",
			New:  func() (lsap.Solver, error) { return cpuhung.Munkres{}, nil },
		},
		{
			Name: "CPU-Auction",
			New:  func() (lsap.Solver, error) { return cpuhung.Auction{}, nil },
		},
		{
			Name: "HunIPU",
			New: func() (lsap.Solver, error) {
				return core.New(core.Options{Config: smallIPU()})
			},
		},
		{
			Name: "HunIPU-nocompress",
			New: func() (lsap.Solver, error) {
				return core.New(core.Options{Config: smallIPU(), DisableCompression: true})
			},
		},
		{
			Name: "HunIPU-2D",
			New: func() (lsap.Solver, error) {
				return core.New(core.Options{Config: smallIPU(), Use2D: true})
			},
		},
		{
			Name: "HunIPU-shard2",
			New: func() (lsap.Solver, error) {
				return fabricIPU(2, core.Options{Guard: poplar.GuardChecksums})
			},
			Certifying: true,
		},
		{
			Name: "HunIPU-shard4",
			New: func() (lsap.Solver, error) {
				return fabricIPU(4, core.Options{Guard: poplar.GuardChecksums})
			},
			Certifying: true,
		},
		{
			Name: "FastHA",
			New: func() (lsap.Solver, error) {
				s, err := fastha.New(fastha.Options{})
				if err != nil {
					return nil, err
				}
				return paddedFastHA{s}, nil
			},
		},
		{
			Name: "IPU-Auction",
			New: func() (lsap.Solver, error) {
				return ipuauction.New(ipuauction.Options{Config: smallIPU()})
			},
		},
		{
			Name: "GPU-Auction",
			New:  func() (lsap.Solver, error) { return gpuauction.New(gpuauction.Options{}) },
		},
		{
			Name: "BruteForce",
			New:  func() (lsap.Solver, error) { return lsap.BruteForce{}, nil },
			MaxN: 9,
		},
	}
}

// Lookup returns the entry with the given name.
func Lookup(name string) (Entry, error) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("conformance: no solver %q in registry", name)
}
