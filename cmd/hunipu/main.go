// Command hunipu solves a Linear Sum Assignment Problem from a matrix
// file (or a generated workload) on the simulated IPU, the simulated
// GPU baseline, or the CPU baseline, and prints the assignment with
// the device profile. Every solve goes through the public reliability
// layer (hunipu.SolveContext), so deadlines, checkpoint recovery,
// device fallback, and deterministic fault injection are all
// available from the command line.
//
// Usage:
//
//	hunipu -in matrix.txt                 # solve a file on the IPU
//	hunipu -n 256 -k 500 -device gpu      # generate and solve
//	hunipu -n 128 -device all             # compare every device
//	hunipu -n 128 -timeout 2s -retry 3 -fallback gpu,cpu \
//	       -faults 'exchange every=40 p=0.5'   # reliability drill
//
// The matrix format is the one cmd/datasetgen writes: a size line
// followed by one whitespace-separated row per line.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"hunipu"
	"hunipu/internal/core"
	"hunipu/internal/datasets"
	"hunipu/internal/lsap"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hunipu:", err)
		os.Exit(1)
	}
}

// cliOptions carries the reliability and profiling flags into each
// solve.
type cliOptions struct {
	timeout    time.Duration
	retry      int
	fallback   string
	faults     string
	showAssign bool
	profile    bool
	trace      string
}

func run() error {
	in := flag.String("in", "", "matrix file to solve (see cmd/datasetgen)")
	n := flag.Int("n", 0, "generate an n×n Gaussian matrix instead of reading -in")
	k := flag.Int("k", 100, "value-range multiplier for generated matrices (range [1,k·n])")
	seed := flag.Int64("seed", 1, "generator seed")
	device := flag.String("device", "ipu", "ipu, gpu, cpu, or all")
	var cli cliOptions
	flag.BoolVar(&cli.showAssign, "assign", false, "print the full assignment")
	flag.BoolVar(&cli.profile, "profile", false, "print the IPU per-compute-set breakdown")
	flag.StringVar(&cli.trace, "trace", "", "write the IPU BSP timeline as Chrome trace JSON to this file")
	flag.DurationVar(&cli.timeout, "timeout", 0, "solve deadline (0 = none)")
	flag.IntVar(&cli.retry, "retry", 0, "transient-fault checkpoint retries (hunipu.WithRecovery)")
	flag.StringVar(&cli.fallback, "fallback", "", "degradation ladder after the primary, e.g. gpu,cpu (hunipu.WithFallback)")
	flag.StringVar(&cli.faults, "faults", "", "deterministic fault schedule, e.g. 'seed=7; exchange every=40 p=0.5' (hunipu.WithFaultSchedule)")
	flag.Parse()

	var (
		m   *lsap.Matrix
		err error
	)
	switch {
	case *in != "":
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		m, err = lsap.ReadMatrix(f)
		if err != nil {
			return err
		}
	case *n > 0:
		m, err = datasets.Gaussian(*n, *k, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("generated %dx%d Gaussian matrix, range [1,%d]\n", *n, *n, *k**n)
	default:
		return fmt.Errorf("provide -in FILE or -n SIZE")
	}
	costs := toRows(m)

	devices := []string{*device}
	if *device == "all" {
		if cli.fallback != "" {
			return fmt.Errorf("-fallback does not combine with -device all")
		}
		devices = []string{"ipu", "gpu", "cpu"}
	}
	for _, d := range devices {
		if err := solveOn(d, costs, cli); err != nil {
			return err
		}
	}
	return nil
}

// toRows converts the internal matrix to the public representation.
func toRows(m *lsap.Matrix) [][]float64 {
	out := make([][]float64, m.N)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// parseDevice maps a flag word to its Device.
func parseDevice(word string) (hunipu.Device, error) {
	switch strings.TrimSpace(strings.ToLower(word)) {
	case "ipu":
		return hunipu.DeviceIPU, nil
	case "gpu":
		return hunipu.DeviceGPU, nil
	case "cpu":
		return hunipu.DeviceCPU, nil
	default:
		return 0, fmt.Errorf("unknown device %q (want ipu, gpu, cpu, all)", word)
	}
}

// solveOn runs one solve through the public reliability layer and
// prints the device profile.
func solveOn(device string, costs [][]float64, cli cliOptions) error {
	primary, err := parseDevice(device)
	if err != nil {
		return err
	}
	opts := []hunipu.Option{hunipu.OnDevice(primary)}
	if cli.fallback != "" {
		var ladder []hunipu.Device
		for _, w := range strings.Split(cli.fallback, ",") {
			d, err := parseDevice(w)
			if err != nil {
				return fmt.Errorf("-fallback: %w", err)
			}
			ladder = append(ladder, d)
		}
		opts = append(opts, hunipu.WithFallback(ladder...))
	}
	if cli.faults != "" {
		opts = append(opts, hunipu.WithFaultSchedule(cli.faults))
	}
	if cli.retry > 0 {
		opts = append(opts, hunipu.WithRecovery(cli.retry))
	}
	var traceFile *os.File
	if primary == hunipu.DeviceIPU && (cli.profile || cli.trace != "") {
		o := core.Options{Profile: cli.profile}
		if cli.trace != "" {
			f, err := os.Create(cli.trace)
			if err != nil {
				return err
			}
			traceFile = f
			o.TraceWriter = f
		}
		opts = append(opts, hunipu.WithIPUOptions(o))
	}

	ctx := context.Background()
	if cli.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cli.timeout)
		defer cancel()
	}
	res, err := hunipu.SolveContext(ctx, costs, opts...)
	if err != nil {
		return err
	}

	switch {
	case res.Device == hunipu.DeviceIPU && servingAttempt(res).IPUDetail != nil:
		r := servingAttempt(res).IPUDetail
		fmt.Printf("IPU   cost=%-14g modeled=%-12v supersteps=%d exchangedMB=%.1f maxTileKiB=%.0f\n",
			res.Cost, res.Modeled, r.Stats.Supersteps,
			float64(r.Stats.BytesExchanged)/(1<<20), float64(r.MaxTileBytes)/1024)
		for i, p := range r.Profile {
			if i >= 10 {
				fmt.Printf("      ... %d more compute sets\n", len(r.Profile)-10)
				break
			}
			fmt.Printf("      %-20s executions=%-8d computeCycles=%d\n", p.Name, p.Executions, p.ComputeCycles)
		}
	case res.Device == hunipu.DeviceGPU && servingAttempt(res).GPUDetail != nil:
		r := servingAttempt(res).GPUDetail
		fmt.Printf("GPU   cost=%-14g modeled=%-12v kernels=%d atomics=%d\n",
			res.Cost, res.Modeled, r.Stats.Kernels, r.Stats.Atomics)
	default:
		fmt.Printf("CPU   cost=%-14g wall=%v\n", res.Cost, res.Wall)
	}
	printReport(res)
	printAssign(res.Assignment, cli.showAssign)
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return err
		}
		fmt.Printf("      trace written to %s\n", cli.trace)
	}
	return nil
}

// servingAttempt returns the attempt that produced the answer.
func servingAttempt(res *hunipu.Result) hunipu.Attempt {
	for _, a := range res.Report.Attempts {
		if a.Err == nil {
			return a
		}
	}
	return hunipu.Attempt{}
}

// printReport surfaces recovery and fallback activity, staying silent
// for clean solves.
func printReport(res *hunipu.Result) {
	r := res.Report
	if r == nil {
		return
	}
	var faults int64
	for _, a := range r.Attempts {
		faults += a.Faults
	}
	if faults == 0 && !r.FellBack && r.Retries() == 0 {
		return
	}
	fmt.Printf("      reliability: attempts=%d faults=%d retries=%d", len(r.Attempts), faults, r.Retries())
	if r.FellBack {
		fmt.Printf(" fellback=%v→%v", r.Primary, r.Served)
	}
	fmt.Println()
	for _, a := range r.Attempts {
		if a.Err != nil {
			fmt.Printf("      attempt %v failed after %v modeled: %v\n", a.Device, a.Modeled, a.Err)
		}
	}
}

func printAssign(a []int, show bool) {
	if !show {
		return
	}
	for i, j := range a {
		fmt.Printf("  row %d -> col %d\n", i, j)
	}
}
