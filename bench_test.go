package hunipu

// Benchmarks regenerating every table and figure of the paper's
// evaluation at bench-friendly scale. Full-scale reproductions (the
// published grid up to n = 8192) run through cmd/experiments -full;
// EXPERIMENTS.md records paper-vs-measured for both.

import (
	"math/rand"
	"runtime"
	"testing"

	"hunipu/internal/bench"
	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/datasets"
	"hunipu/internal/fastha"
	"hunipu/internal/graphalign"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

func benchConfig() bench.Config {
	return bench.Config{
		Sizes:       []int{64, 128},
		Ks:          []int{10, 500},
		Fig5Ks:      []int{10, 500},
		NoiseLevels: []float64{0.90, 0.99},
		GraphScale:  0.1,
		Seed:        1,
	}
}

func newBenchHarness(b *testing.B) *bench.Harness {
	b.Helper()
	h, err := bench.NewHarness(benchConfig())
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkTable1Datasets regenerates Table I (dataset characteristics).
func BenchmarkTable1Datasets(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2SpeedupVsCPU regenerates Table II (HunIPU vs CPU
// runtime gain on Gaussian data).
func BenchmarkTable2SpeedupVsCPU(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5FastHAvsHunIPU regenerates Figure 5 (runtime of FastHA
// vs HunIPU across sizes and value ranges).
func BenchmarkFig5FastHAvsHunIPU(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3GraphAlignment regenerates Table III (graph-alignment
// runtimes on the three real-world datasets).
func BenchmarkTable3GraphAlignment(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableUniform regenerates the uniform-data variant the paper
// summarises in the text of Section V-A/V-B.
func BenchmarkTableUniform(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.TableUniform(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblations regenerates the design-choice ablation table
// (1D vs 2D mapping, compression, segment sizes, thread counts).
func BenchmarkAblations(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// Per-solver microbenchmarks on one Figure-5 workload (n=128, 500n).

func fig5Workload(b *testing.B) *lsap.Matrix {
	b.Helper()
	m, err := datasets.Gaussian(128, 500, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkSolverHunIPU reports the simulated work of one solve beside
// its host time: supersteps/op, vertices/op and modeled-us/op, so
// ns/op divided by either count is the host cost of one simulated event.
func BenchmarkSolverHunIPU(b *testing.B) {
	m := fig5Workload(b)
	s, err := core.New(core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var r *core.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r, err = s.SolveDetailed(m); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.Stats.Supersteps), "supersteps/op")
	b.ReportMetric(float64(r.Stats.VerticesRun), "vertices/op")
	b.ReportMetric(float64(r.Modeled.Nanoseconds())/1e3, "modeled-us/op")
}

func BenchmarkSolverFastHA(b *testing.B) {
	m := fig5Workload(b)
	s, err := fastha.New(fastha.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolverCPUJV(b *testing.B) {
	m := fig5Workload(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (cpuhung.JV{}).Solve(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardOverhead measures the silent-corruption guard per
// policy on one 1024×1024 Gaussian workload: wall time and the modeled
// guard-cycle charge (reported as guard-cycles/op) both order
// Paranoid > Invariants > Checksums > Off. A full-policy sweep at this
// size takes a few minutes of simulator time; -short drops to 256×256.
func BenchmarkGuardOverhead(b *testing.B) {
	n := 1024
	if testing.Short() {
		n = 256
	}
	m, err := datasets.Gaussian(n, 500, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range []poplar.GuardPolicy{
		poplar.GuardOff, poplar.GuardChecksums, poplar.GuardInvariants, poplar.GuardParanoid,
	} {
		g := g
		b.Run(g.String(), func(b *testing.B) {
			s, err := core.New(core.Options{Guard: g})
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := s.SolveDetailed(m)
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Stats.GuardCycles
			}
			b.ReportMetric(float64(cycles), "guard-cycles/op")
		})
	}
}

// BenchmarkGrampa measures the similarity-matrix substrate on the
// scaled HighSchool analogue.
func BenchmarkGrampa(b *testing.B) {
	g, _, err := datasets.ScaledRealGraph(datasets.HighSchool, 1, 0.2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graphalign.Grampa(g, g, graphalign.DefaultEta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverZoo compares every solver in the repository on one
// workload (extended baseline study beyond the paper's two).
func BenchmarkSolverZoo(b *testing.B) {
	h := newBenchHarness(b)
	for i := 0; i < b.N; i++ {
		if _, err := h.Zoo(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmSolveAllocBudget is the step-kernel allocation-churn ratchet.
// Before the compile-time execution scratch (ComputeSet.sched, whose
// tiles keep their thread slots), a warm n=64 solve heap-allocated ~440k
// objects — one Worker per vertex per superstep plus per-superstep
// schedule and timing slices. Before the engine gathered a guarded
// step's declared reads and writes into one reusable scratch pair, a
// warm guarded solve allocated ~18k. With both, a warm solve allocates
// well under a thousand objects, guarded or not. Before checkpoints
// copied only dirty tensors into buffers kept by the engine, a warm
// recovery-armed solve allocated ~780 KB; now every case stays near the
// 32 KB its input clone costs.
func TestWarmSolveAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    core.Options
	}{
		{"off", core.Options{}},
		{"checksums", core.Options{Guard: poplar.GuardChecksums}},
		{"recovery", core.Options{MaxRetries: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ipu.MK2()
			cfg.TilesPerIPU = 64
			tc.o.Config = cfg
			s, err := core.New(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			m := lsap.NewMatrix(64)
			for i := range m.Data {
				m.Data[i] = float64(1 + rng.Intn(640))
			}
			// First solve pays graph construction and compilation.
			if _, err := s.Solve(m.Clone()); err != nil {
				t.Fatal(err)
			}
			objects, bytes := allocsPerRun(3, func() {
				if _, err := s.Solve(m.Clone()); err != nil {
					t.Fatal(err)
				}
			})
			const budget, byteBudget = 2000, 128 << 10
			if objects > budget {
				t.Fatalf("warm n=64 solve allocates %.0f objects, budget %d — per-superstep scratch reuse has regressed", objects, budget)
			}
			if bytes > byteBudget {
				t.Fatalf("warm n=64 solve allocates %.0f bytes, budget %d — checkpoint buffer reuse has regressed", bytes, byteBudget)
			}
			t.Logf("warm n=64 solve: %.0f allocs, %.0f bytes (budgets %d, %d; pre-scratch baseline ~440000 allocs)", objects, bytes, budget, byteBudget)
		})
	}
}

// allocsPerRun is testing.AllocsPerRun reporting bytes as well: the
// mean heap objects and bytes one call of f allocates, after one
// warm-up call, measured with GOMAXPROCS 1.
func allocsPerRun(runs int, f func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
