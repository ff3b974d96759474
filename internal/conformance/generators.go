package conformance

import (
	"math/rand"

	"hunipu/internal/lsap"
)

// Generator is one seeded adversarial workload family. All families
// emit finite, integer-valued matrices (the repository's exactness
// convention), so every solver — including the ε-scaling auctions —
// must reproduce the optimal cost exactly.
type Generator struct {
	Name string
	// Gen builds an n×n instance from the given stream. The same
	// (seed, n) always yields the same matrix.
	Gen func(rng *rand.Rand, n int) *lsap.Matrix
}

// Families returns every generator family, in the order reports use.
func Families() []Generator {
	return []Generator{
		{Name: "uniform", Gen: genUniform},
		{Name: "tied", Gen: genTied},
		{Name: "constant", Gen: genConstant},
		{Name: "degenerate-rows", Gen: genDegenerateRows},
		{Name: "near-inf", Gen: genNearInf},
		{Name: "spread", Gen: genSpread},
		{Name: "rect-padded", Gen: genRectPadded},
		{Name: "max-flipped", Gen: genMaxFlipped},
	}
}

// genUniform is the baseline workload: integers uniform in [1, 10n],
// the paper's k = 10 value range.
func genUniform(rng *rand.Rand, n int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(1 + rng.Intn(10*n))
	}
	return m
}

// genTied draws from {1, 2, 3} only, so almost every instance has many
// optimal matchings — the regime where solvers legitimately disagree on
// the assignment and only cost comparison plus certificates are sound.
func genTied(rng *rand.Rand, n int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(1 + rng.Intn(3))
	}
	return m
}

// genConstant is total degeneracy: every entry equal, every matching
// optimal. Exercises zero-slack paths (every entry is a zero after the
// initial subtraction).
func genConstant(rng *rand.Rand, n int) *lsap.Matrix {
	v := float64(1 + rng.Intn(100))
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// genDegenerateRows makes roughly half the rows constant (those rows
// are indifferent to their column) and the rest uniform, mixing
// degenerate and informative structure in one instance.
func genDegenerateRows(rng *rand.Rand, n int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			v := float64(1 + rng.Intn(50))
			for j := 0; j < n; j++ {
				m.Set(i, j, v)
			}
		} else {
			for j := 0; j < n; j++ {
				m.Set(i, j, float64(1+rng.Intn(50)))
			}
		}
	}
	return m
}

// genNearInf uses magnitudes around 10^12 with small relative spreads:
// still exactly representable in float64 but adversarial for any
// solver that accumulates slacks or ε-scales from the value range.
func genNearInf(rng *rand.Rand, n int) *lsap.Matrix {
	const base = 1e12
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = base + float64(rng.Intn(1000))
	}
	return m
}

// genSpread mixes tiny and huge entries in one matrix (1 vs 10^9): the
// dynamic range stresses ε-scaling phase counts and slack updates.
func genSpread(rng *rand.Rand, n int) *lsap.Matrix {
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		if rng.Intn(2) == 0 {
			m.Data[i] = float64(1 + rng.Intn(5))
		} else {
			m.Data[i] = float64(1_000_000_000 + rng.Intn(1000))
		}
	}
	return m
}

// genRectPadded reproduces the public API's rectangular handling as a
// square instance: a real r×n block (r < n) padded with dummy rows at
// max+1, so the optimum must route every dummy row to the columns the
// real rows do not want.
func genRectPadded(rng *rand.Rand, n int) *lsap.Matrix {
	if n < 2 {
		return genUniform(rng, n)
	}
	r := n - 1 - rng.Intn(min(2, n-1))
	m := lsap.NewMatrix(n)
	maxV := 0.0
	for i := 0; i < r; i++ {
		for j := 0; j < n; j++ {
			v := float64(1 + rng.Intn(10*n))
			if v > maxV {
				maxV = v
			}
			m.Set(i, j, v)
		}
	}
	for i := r; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, maxV+1)
		}
	}
	return m
}

// genMaxFlipped generates a uniform instance and converts it to the
// minimisation form of its maximisation problem via Negate (v → max−v),
// the transformation Maximize() applies in the public API.
func genMaxFlipped(rng *rand.Rand, n int) *lsap.Matrix {
	return genUniform(rng, n).Negate()
}

// Instance names one generated problem, reproducibly: family, size and
// seed fully determine the matrix.
type Instance struct {
	Family string
	N      int
	Seed   int64
	Matrix *lsap.Matrix
}

// Instances enumerates trials×len(sizes) instances per family,
// deterministically from the base seed.
func Instances(families []Generator, sizes []int, trials int, seed int64) []Instance {
	var out []Instance
	for _, g := range families {
		for _, n := range sizes {
			for t := 0; t < trials; t++ {
				s := seed + int64(len(out))
				rng := rand.New(rand.NewSource(s))
				out = append(out, Instance{
					Family: g.Name,
					N:      n,
					Seed:   s,
					Matrix: g.Gen(rng, n),
				})
			}
		}
	}
	return out
}
