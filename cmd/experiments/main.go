// Command experiments regenerates every table and figure of the
// paper's evaluation (Section V). By default it runs a laptop-scale
// configuration that preserves the published shape; -full switches to
// the paper's grid (n up to 8192, full-size graphs), which takes
// hours.
//
// Usage:
//
//	experiments -all                # every experiment, default scale
//	experiments -table2 -fig5       # selected experiments
//	experiments -all -full          # the published grid
//	experiments -all -csv -outdir results/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"hunipu/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		table1  = flag.Bool("table1", false, "Table I: dataset characteristics")
		table2  = flag.Bool("table2", false, "Table II: HunIPU vs CPU speedup grid")
		fig5    = flag.Bool("fig5", false, "Figure 5: FastHA vs HunIPU runtimes")
		table3  = flag.Bool("table3", false, "Table III: graph-alignment runtimes")
		uniform = flag.Bool("uniform", false, "uniform-data variant of Table II")
		ablate  = flag.Bool("ablate", false, "design-choice ablations")
		zoo     = flag.Bool("zoo", false, "all-solver comparison on one workload")
		gens    = flag.Bool("generations", false, "HunIPU across IPU generations (Mk1/Mk2/Bow)")
		all     = flag.Bool("all", false, "run every experiment")
		full    = flag.Bool("full", false, "use the paper's full-size grid (hours)")
		sizes   = flag.String("sizes", "", "comma-separated matrix sizes (overrides defaults)")
		seed    = flag.Int64("seed", 1, "workload seed")
		quiet   = flag.Bool("quiet", false, "suppress per-cell progress")
		csv     = flag.Bool("csv", false, "also write CSV files")
		svg     = flag.Bool("svg", false, "also render Figure 5 as SVG")
		outdir  = flag.String("outdir", ".", "directory for CSV output")
	)
	flag.Parse()

	if *all {
		*table1, *table2, *fig5, *table3, *uniform, *ablate, *zoo, *gens = true, true, true, true, true, true, true, true
	}
	if !*table1 && !*table2 && !*fig5 && !*table3 && !*uniform && !*ablate && !*zoo && !*gens {
		flag.Usage()
		return fmt.Errorf("select at least one experiment (or -all)")
	}

	cfg := bench.Config{Seed: *seed, Full: *full}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -sizes entry %q", s)
			}
			cfg.Sizes = append(cfg.Sizes, n)
		}
	}
	if !*quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  ", s) }
	}

	h, err := bench.NewHarness(cfg)
	if err != nil {
		return err
	}

	runs := []struct {
		enabled bool
		name    string
		fn      func() (*bench.Table, error)
	}{
		{*table1, "table1", h.Table1},
		{*table2, "table2", h.Table2},
		{*uniform, "table2_uniform", h.TableUniform},
		{*fig5, "fig5", h.Fig5},
		{*table3, "table3", h.Table3},
		{*ablate, "ablations", h.Ablations},
		{*zoo, "zoo", h.Zoo},
		{*gens, "generations", h.Generations},
	}
	for _, r := range runs {
		if !r.enabled {
			continue
		}
		t, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Println(t.String())
		if *csv {
			path := filepath.Join(*outdir, r.name+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Printf("(csv written to %s)\n\n", path)
		}
		if *svg && r.name == "fig5" {
			rendered, err := bench.Fig5SVG(t)
			if err != nil {
				return err
			}
			path := filepath.Join(*outdir, "fig5.svg")
			if err := os.WriteFile(path, []byte(rendered), 0o644); err != nil {
				return err
			}
			fmt.Printf("(svg written to %s)\n\n", path)
		}
	}
	return nil
}
