package bench

import (
	"fmt"
	"math/rand"
	"time"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/datasets"
	"hunipu/internal/fastha"
	"hunipu/internal/gpuauction"
	"hunipu/internal/graphalign"
	"hunipu/internal/ipu"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
)

// Config scopes an experiment run. The zero value gives a laptop-scale
// run preserving the paper's relative shape; Full switches to the
// published grid (n up to 8192), which takes hours.
type Config struct {
	// Sizes are the matrix sizes for Table II / Figure 5. Nil means
	// {128, 256, 512}; Full overrides with the paper's sizes.
	Sizes []int
	// Ks are the value-range multipliers. Nil means the paper's set.
	Ks []int
	// Fig5Ks are the ranges plotted in Figure 5. Nil means {10,500,5000}.
	Fig5Ks []int
	// NoiseLevels are Table III's retained-edge fractions.
	// Nil means {0.80, 0.90, 0.95, 0.99}.
	NoiseLevels []float64
	// GraphScale shrinks the Table III graphs (1 = full size).
	// 0 means 0.25; Full overrides with 1.
	GraphScale float64
	// Seed drives every generator.
	Seed int64
	// Full selects the paper's full-size grid.
	Full bool
	// Eta is the GRAMPA hyper-parameter; 0 means the paper's 0.2.
	Eta float64
	// HunIPU configures the IPU solver (zero value = Mk2 defaults).
	HunIPU core.Options
	// FastHA configures the GPU baseline.
	FastHA fastha.Options
	// Progress, when non-nil, receives one line per completed cell.
	Progress func(string)
}

func (c Config) withDefaults() Config {
	if c.Sizes == nil {
		c.Sizes = []int{128, 256, 512}
	}
	if c.Full {
		c.Sizes = datasets.PaperSizes
	}
	if c.Ks == nil {
		c.Ks = datasets.PaperKs
	}
	if c.Fig5Ks == nil {
		c.Fig5Ks = []int{10, 500, 5000}
	}
	if c.NoiseLevels == nil {
		c.NoiseLevels = []float64{0.80, 0.90, 0.95, 0.99}
	}
	if c.GraphScale == 0 {
		c.GraphScale = 0.25
	}
	if c.Full {
		c.GraphScale = 1
	}
	if c.Eta == 0 {
		c.Eta = graphalign.DefaultEta
	}
	return c
}

// Harness runs the paper's experiments.
type Harness struct {
	cfg    Config
	hunipu *core.Solver
	gpu    *fastha.Solver
}

// NewHarness validates the configuration and builds the solvers.
func NewHarness(cfg Config) (*Harness, error) {
	cfg = cfg.withDefaults()
	hun, err := core.New(cfg.HunIPU)
	if err != nil {
		return nil, err
	}
	fha, err := fastha.New(cfg.FastHA)
	if err != nil {
		return nil, err
	}
	return &Harness{cfg: cfg, hunipu: hun, gpu: fha}, nil
}

func (h *Harness) progress(format string, args ...any) {
	if h.cfg.Progress != nil {
		h.cfg.Progress(fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) string { return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000) }

// Table1 regenerates Table I: the dataset characteristics, measured on
// the generated analogues so the row proves the generators hit the
// published numbers.
func (h *Harness) Table1() (*Table, error) {
	t := &Table{
		Title:  "Table I: Characteristics of the real graph data",
		Note:   "synthetic analogues; n and m match the published table exactly",
		Header: []string{"Dataset", "n", "m", "Type"},
	}
	for _, d := range datasets.AllRealDatasets {
		ch, err := datasets.TableI(d)
		if err != nil {
			return nil, err
		}
		g, err := datasets.RealGraph(d, h.cfg.Seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(string(d), fmt.Sprint(g.N), fmt.Sprint(g.NumEdges()), ch.Type)
	}
	return t, nil
}

// solveCell runs one (n,k) workload on the CPU baseline and HunIPU,
// checks the optima agree, and returns (cpu wall time, ipu modeled).
// The timed CPU baseline is the classic sequential Munkres — the
// paper's CPU implementation takes hours on a few thousand elements,
// which matches step-based Munkres, not the shortest-augmenting-path
// variant (JV remains the correctness oracle elsewhere).
func (h *Harness) solveCell(m *lsap.Matrix) (cpu time.Duration, ipu time.Duration, err error) {
	start := time.Now()
	ref, err := (cpuhung.Munkres{}).Solve(m)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: CPU solve: %w", err)
	}
	cpu = time.Since(start)
	r, err := h.hunipu.SolveDetailed(m)
	if err != nil {
		return 0, 0, fmt.Errorf("bench: HunIPU solve: %w", err)
	}
	if r.Solution.Cost != ref.Cost {
		return 0, 0, fmt.Errorf("bench: HunIPU cost %g ≠ CPU cost %g", r.Solution.Cost, ref.Cost)
	}
	return cpu, r.Modeled, nil
}

// Table2 regenerates Table II: the runtime gain of HunIPU over the
// optimised CPU Hungarian on Gaussian data, for every size and range.
func (h *Harness) Table2() (*Table, error) {
	return h.speedupGrid(datasets.Gaussian,
		"Table II: Runtime gain of HunIPU vs CPU Hungarian (Gaussian data)")
}

// TableUniform regenerates the uniform-data variant the paper reports
// as "similar speedup (omitted in the interest of space)".
func (h *Harness) TableUniform() (*Table, error) {
	return h.speedupGrid(datasets.Uniform,
		"Uniform-data variant of Table II (paper: 'similar speedup')")
}

func (h *Harness) speedupGrid(gen func(int, int, int64) (*lsap.Matrix, error), title string) (*Table, error) {
	t := &Table{
		Title:  title,
		Note:   "cells are CPU wall time / HunIPU modeled time",
		Header: []string{"n"},
	}
	for _, k := range h.cfg.Ks {
		t.Header = append(t.Header, fmt.Sprintf("%dn", k))
	}
	for _, n := range h.cfg.Sizes {
		row := []string{fmt.Sprint(n)}
		for _, k := range h.cfg.Ks {
			m, err := gen(n, k, h.cfg.Seed+int64(n)*31+int64(k))
			if err != nil {
				return nil, err
			}
			cpu, ipu, err := h.solveCell(m)
			if err != nil {
				return nil, fmt.Errorf("n=%d k=%d: %w", n, k, err)
			}
			gain := float64(cpu) / float64(ipu)
			row = append(row, fmt.Sprintf("%.2f", gain))
			h.progress("table2 n=%d k=%d: cpu=%v hunipu=%v gain=%.1f", n, k, cpu, ipu, gain)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// Fig5 regenerates Figure 5: runtimes of FastHA and HunIPU across
// sizes and value ranges on Gaussian data.
func (h *Harness) Fig5() (*Table, error) {
	t := &Table{
		Title:  "Figure 5: Runtime of FastHA vs HunIPU (Gaussian data)",
		Note:   "both runtimes are modeled device times, in ms",
		Header: []string{"n", "range", "FastHA(ms)", "HunIPU(ms)", "speedup"},
	}
	for _, n := range h.cfg.Sizes {
		if n != lsap.NextPow2(n) {
			continue // FastHA's restriction; the paper only plots 2^m sizes
		}
		for _, k := range h.cfg.Fig5Ks {
			m, err := datasets.Gaussian(n, k, h.cfg.Seed+int64(n)*17+int64(k))
			if err != nil {
				return nil, err
			}
			fr, err := h.gpu.SolveDetailed(m)
			if err != nil {
				return nil, fmt.Errorf("fig5 fastha n=%d k=%d: %w", n, k, err)
			}
			hr, err := h.hunipu.SolveDetailed(m)
			if err != nil {
				return nil, fmt.Errorf("fig5 hunipu n=%d k=%d: %w", n, k, err)
			}
			if fr.Solution.Cost != hr.Solution.Cost {
				return nil, fmt.Errorf("fig5 n=%d k=%d: cost mismatch %g vs %g",
					n, k, fr.Solution.Cost, hr.Solution.Cost)
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprintf("%dn", k), ms(fr.Modeled), ms(hr.Modeled),
				fmt.Sprintf("%.2f", float64(fr.Modeled)/float64(hr.Modeled)))
			h.progress("fig5 n=%d k=%d: fastha=%v hunipu=%v", n, k, fr.Modeled, hr.Modeled)
		}
	}
	return t, nil
}

// Table3 regenerates Table III: graph-alignment runtimes on the three
// real-world datasets at each noise level. MultiMagna follows the
// paper in using five variants (independent noisy copies at 90%
// retained edges); the others sweep the retention levels.
func (h *Harness) Table3() (*Table, error) {
	t := &Table{
		Title: "Table III: Runtime (ms) on real-world graph alignment",
		Note: fmt.Sprintf("GRAMPA similarity (η=%.2g); FastHA is zero-padded to 2^m; graph scale %.2g",
			h.cfg.Eta, h.cfg.GraphScale),
		Header: []string{"Dataset", "Variant", "n", "HunIPU(ms)", "FastHA(ms)", "speedup", "accuracy"},
	}
	for _, d := range datasets.AllRealDatasets {
		g, _, err := datasets.ScaledRealGraph(d, h.cfg.Seed, h.cfg.GraphScale)
		if err != nil {
			return nil, err
		}
		type variant struct {
			label string
			keep  float64
			seed  int64
		}
		var variants []variant
		if d == datasets.MultiMagna {
			for v := 1; v <= 5; v++ {
				variants = append(variants, variant{fmt.Sprintf("Variant%d", v), 0.90, h.cfg.Seed + int64(100+v)})
			}
		} else {
			for _, keep := range h.cfg.NoiseLevels {
				variants = append(variants, variant{fmt.Sprintf("%.0f%%", keep*100), keep, h.cfg.Seed + 7})
			}
		}
		for _, v := range variants {
			rng := rand.New(rand.NewSource(v.seed))
			noisy, err := g.NoisyCopy(rng, v.keep)
			if err != nil {
				return nil, err
			}
			prob, err := graphalign.BuildAlignment(g, noisy, h.cfg.Eta)
			if err != nil {
				return nil, err
			}
			hr, err := h.hunipu.SolveDetailed(prob.Cost)
			if err != nil {
				return nil, fmt.Errorf("table3 %s %s hunipu: %w", d, v.label, err)
			}
			fr, err := h.gpu.SolvePadded(prob.Cost)
			if err != nil {
				return nil, fmt.Errorf("table3 %s %s fastha: %w", d, v.label, err)
			}
			if fr.Solution.Cost != hr.Solution.Cost {
				return nil, fmt.Errorf("table3 %s %s: cost mismatch %g vs %g",
					d, v.label, fr.Solution.Cost, hr.Solution.Cost)
			}
			acc := graphalign.Accuracy(hr.Solution.Assignment, prob.Truth)
			t.AddRow(string(d), v.label, fmt.Sprint(g.N), ms(hr.Modeled), ms(fr.Modeled),
				fmt.Sprintf("%.2f", float64(fr.Modeled)/float64(hr.Modeled)),
				fmt.Sprintf("%.3f", acc))
			h.progress("table3 %s %s: hunipu=%v fastha=%v acc=%.3f", d, v.label, hr.Modeled, fr.Modeled, acc)
		}
	}
	return t, nil
}

// Ablations benchmarks the design choices of Section IV on one fixed
// workload: 1D vs 2D decomposition, compression on/off, the column-
// segment size (the footnote's empirical 32), and one thread per row
// vs six.
func (h *Harness) Ablations() (*Table, error) {
	n := h.cfg.Sizes[len(h.cfg.Sizes)-1]
	k := 500
	m, err := datasets.Gaussian(n, k, h.cfg.Seed+999)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Ablations of HunIPU design choices (n=%d, range %dn)", n, k),
		Note:   "modeled time; every variant must reach the same optimal cost",
		Header: []string{"Variant", "Modeled(ms)", "Supersteps", "BytesExchanged", "ComputeCycles"},
	}
	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"HunIPU (paper config)", func(*core.Options) {}},
		{"2D decomposition (rejected in IV-A)", func(o *core.Options) { o.Use2D = true }},
		{"no compression (IV-B off)", func(o *core.Options) { o.DisableCompression = true }},
		{"col segment 8", func(o *core.Options) { o.ColSegment = 8 }},
		{"col segment 128", func(o *core.Options) { o.ColSegment = 128 }},
		{"1 thread per row (naive, IV-B)", func(o *core.Options) { o.ThreadsPerRow = 1 }},
	}
	var refCost float64
	for i, v := range variants {
		o := h.cfg.HunIPU
		v.mutate(&o)
		s, err := core.New(o)
		if err != nil {
			return nil, err
		}
		r, err := s.SolveDetailed(m)
		if err != nil {
			return nil, fmt.Errorf("ablation %q: %w", v.name, err)
		}
		if i == 0 {
			refCost = r.Solution.Cost
		} else if r.Solution.Cost != refCost {
			return nil, fmt.Errorf("ablation %q: cost %g ≠ %g", v.name, r.Solution.Cost, refCost)
		}
		t.AddRow(v.name, ms(r.Modeled), fmt.Sprint(r.Stats.Supersteps),
			fmt.Sprint(r.Stats.BytesExchanged), fmt.Sprint(r.Stats.ComputeCycles))
		h.progress("ablation %s: %v", v.name, r.Modeled)
	}
	return t, nil
}

// Zoo benchmarks every solver in the repository on one Figure-5-style
// workload — HunIPU, the paper's two baselines, and the auctions the
// degradation ladder serves with — and cross-checks that all reach the
// optimum.
func (h *Harness) Zoo() (*Table, error) {
	n := h.cfg.Sizes[len(h.cfg.Sizes)-1]
	k := 500
	m, err := datasets.Gaussian(n, k, h.cfg.Seed+777)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Solver zoo on one workload (n=%d, range %dn, Gaussian)", n, k),
		Note:   "IPU/GPU solvers report modeled time; CPU solvers wall-clock",
		Header: []string{"Solver", "Device", "Time(ms)", "Timing"},
	}
	ref, err := (cpuhung.JV{}).Solve(m)
	if err != nil {
		return nil, err
	}

	addModeled := func(name, device string, modeled time.Duration, cost float64) error {
		if cost != ref.Cost {
			return fmt.Errorf("bench: %s cost %g ≠ optimum %g", name, cost, ref.Cost)
		}
		t.AddRow(name, device, ms(modeled), "modeled")
		h.progress("zoo %s: %v", name, modeled)
		return nil
	}
	addWall := func(s lsap.Solver, device string) error {
		start := time.Now()
		sol, err := s.Solve(m)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", s.Name(), err)
		}
		wall := time.Since(start)
		if sol.Cost != ref.Cost {
			return fmt.Errorf("bench: %s cost %g ≠ optimum %g", s.Name(), sol.Cost, ref.Cost)
		}
		t.AddRow(s.Name(), device, ms(wall), "wall")
		h.progress("zoo %s: %v", s.Name(), wall)
		return nil
	}

	hr, err := h.hunipu.SolveDetailed(m)
	if err != nil {
		return nil, err
	}
	if err := addModeled(h.hunipu.Name(), "IPU Mk2 (sim)", hr.Modeled, hr.Solution.Cost); err != nil {
		return nil, err
	}
	fr, err := h.gpu.SolvePadded(m)
	if err != nil {
		return nil, err
	}
	if err := addModeled("FastHA", "A100 (sim)", fr.Modeled, fr.Solution.Cost); err != nil {
		return nil, err
	}
	ga, err := gpuauction.New(gpuauction.Options{})
	if err != nil {
		return nil, err
	}
	gr, err := ga.SolveDetailed(m)
	if err != nil {
		return nil, err
	}
	if err := addModeled("GPU-Auction", "A100 (sim)", gr.Modeled, gr.Solution.Cost); err != nil {
		return nil, err
	}
	ia, err := ipuauction.New(ipuauction.Options{Config: h.cfg.HunIPU.Config})
	if err != nil {
		return nil, err
	}
	ir, err := ia.SolveDetailed(m)
	if err != nil {
		return nil, err
	}
	if err := addModeled("IPU-Auction", "IPU Mk2 (sim)", ir.Modeled, ir.Solution.Cost); err != nil {
		return nil, err
	}
	for _, s := range []lsap.Solver{cpuhung.JV{}, cpuhung.Munkres{}, cpuhung.Auction{}} {
		if err := addWall(s, "host CPU"); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Generations runs one workload across the three IPU generations the
// simulator models (Mk1 GC2, Mk2 GC200, Bow-2000): the paper evaluates
// on Mk2; this extension shows how the algorithm scales with clock,
// tile count, and tile memory across the product line.
func (h *Harness) Generations() (*Table, error) {
	n := h.cfg.Sizes[len(h.cfg.Sizes)-1]
	k := 500
	m, err := datasets.Gaussian(n, k, h.cfg.Seed+555)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("HunIPU across IPU generations (n=%d, range %dn)", n, k),
		Note:   "same algorithm and mapping; only the machine model changes",
		Header: []string{"Device", "Tiles", "Clock(GHz)", "TileMem(KiB)", "Modeled(ms)", "MaxTile(KiB)"},
	}
	var refCost float64
	for i, cfg := range []ipu.Config{ipu.MK1(), ipu.MK2(), ipu.BOW()} {
		o := h.cfg.HunIPU
		o.Config = cfg
		s, err := core.New(o)
		if err != nil {
			return nil, err
		}
		r, err := s.SolveDetailed(m)
		if err != nil {
			return nil, fmt.Errorf("generation %s: %w", cfg.Name, err)
		}
		if i == 0 {
			refCost = r.Solution.Cost
		} else if r.Solution.Cost != refCost {
			return nil, fmt.Errorf("generation %s: cost %g ≠ %g", cfg.Name, r.Solution.Cost, refCost)
		}
		t.AddRow(cfg.Name, fmt.Sprint(cfg.Tiles()),
			fmt.Sprintf("%.3f", cfg.ClockHz/1e9),
			fmt.Sprint(cfg.TileMemory/1024),
			ms(r.Modeled),
			fmt.Sprint(r.MaxTileBytes/1024))
		h.progress("generation %s: %v", cfg.Name, r.Modeled)
	}
	return t, nil
}
