// Command hunipubench is HunIPU's benchmark. It runs named workloads
// against the library in-process and against a real hunipud daemon over
// loopback, certifies every answer against a Jonker–Volgenant optimum,
// and prints end-to-end and per-layer metrics.
//
// It is its own module; run it from the repository root with
//
//	bash cmd/hunipubench/run.sh -seed 1                                   # every workload
//	bash cmd/hunipubench/run.sh -workload serve-steady-mix -seed 3 -seconds 20
//	bash cmd/hunipubench/run.sh -workload batch-exact-n128 -trace 1      # per-layer metrics and spans
//	bash cmd/hunipubench/run.sh -workload stream-bounded-n128 -repeat 5  # calibration
//
// or with "go run ." from cmd/hunipubench. Each metric prints as
// "workload metric value unit n=<samples>", and the last line of
// standard output is a JSON summary. The exit status is 0 only when
// every answer was certified and no warm solve rebuilt its program.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir, under the repository root, holds what the benchmark builds
// and writes.
const buildDir = ".bench_build"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// env is one invocation's settings.
type env struct {
	root     string // repository root: the nearest directory up whose go.mod is module hunipu
	seed     int64
	seconds  int
	trace    bool
	traceDir string
	hunipud  string // the daemon binary, once built
}

// windowLength is one measured window; trace mode splits the run's
// seconds between an untraced and a traced window.
func (e *env) windowLength() time.Duration {
	d := time.Duration(e.seconds) * time.Second
	if e.trace {
		d /= 2
	}
	return d
}

// daemonBinary builds cmd/hunipud once per invocation, before any timing.
func (e *env) daemonBinary(ctx context.Context) (string, error) {
	if e.hunipud != "" {
		return e.hunipud, nil
	}
	out := filepath.Join(e.root, buildDir, "hunipud")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", out, "./cmd/hunipud")
	cmd.Dir = e.root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build hunipud: %v: %s", err, msg)
	}
	e.hunipud = out
	return out, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hunipubench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	name := fs.String("workload", "", "workload to run (default: every workload)")
	seconds := fs.Int("seconds", 30, "length of the measured window, in seconds")
	trace := fs.Int("trace", 0, "1 splits the window into an untraced and a traced half, reports per-layer metrics and writes spans")
	traceDir := fs.String("trace-dir", "", "directory for the span files of -trace 1, one trace-<workload>.jsonl each (default "+buildDir+" under the repository root)")
	repeat := fs.Int("repeat", 0, "calibration: run K untraced passes on seeds seed…seed+K−1 and print each metric's median and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	switch {
	case len(selected) == 0:
		fmt.Fprintf(stderr, "hunipubench: unknown workload %q\n", *name)
		return 2
	case *seconds < 1 || *trace != 0 && *trace != 1 || *repeat < 0 || *repeat > 0 && *trace == 1:
		fmt.Fprintln(stderr, "hunipubench: want -seconds ≥ 1, -trace 0 or 1, -repeat ≥ 0 and untraced")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "hunipubench:", err)
		return 1
	}
	e := &env{root: root, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	if e.traceDir == "" {
		e.traceDir = filepath.Join(root, buildDir)
	}
	fmt.Fprintf(stdout, "# hunipubench seed=%d seconds=%d trace=%d gomaxprocs=%d batch_gomaxprocs=%d cpu=%q go=%s %s/%s\n",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0), batchProcs, cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	if *repeat > 0 {
		return calibrate(ctx, e, selected, *repeat, stdout, stderr)
	}

	sum := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range selected {
		res, err := measure(ctx, e, w, stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "hunipubench: %s: %v\n", w.name, err)
			return 1
		}
		sum.Correct = sum.Correct && res.correct
		sum.Attempted += res.attempted
		sum.Failed += res.failed
		for _, d := range metricDefs {
			m, ok := res.metrics[d.name]
			if !ok || d.e2e == e.trace {
				continue
			}
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			sum.Metrics[key] = value{Value: m.value, Unit: d.unit}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "hunipubench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one measured workload.
type result struct {
	metrics           map[string]metric
	attempted, failed int
	correct           bool
}

// measure runs one pass of w, prints its metrics and reports whether
// every answer was certified.
func measure(ctx context.Context, e *env, w workload, stdout, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(ctx, time.Duration(e.seconds)*time.Second+120*time.Second)
	defer cancel()
	p, profile, err := w.run(ctx, e)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: endToEnd(p)}
	lw := &p.main
	if p.traced != nil {
		lw = p.traced
		tm, err := traceMetrics(p, filepath.Join(e.traceDir, "trace-"+w.name+".jsonl"), profile)
		if err != nil {
			return nil, err
		}
		for k, v := range tm {
			res.metrics[k] = v
		}
	}
	for k, v := range perLayer(p, lw) {
		res.metrics[k] = v
	}

	violations, failures := p.problems()
	for _, ops := range p.opSets() {
		res.attempted += len(ops)
	}
	builds := p.main.cache.builds
	if p.traced != nil {
		builds += p.traced.cache.builds
	}
	res.failed = len(violations) + len(failures)
	res.correct = res.failed == 0 && builds == 0
	for _, v := range violations {
		fmt.Fprintf(stderr, "hunipubench: %s: violation: %s\n", w.name, v)
	}
	for _, f := range failures {
		fmt.Fprintf(stderr, "hunipubench: %s: failure: %s\n", w.name, f)
	}
	if builds > 0 {
		fmt.Fprintf(stderr, "hunipubench: %s: %d program builds inside the window\n", w.name, builds)
	}

	for _, d := range metricDefs {
		m, ok := res.metrics[d.name]
		if !ok {
			continue
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
			res.metrics[d.name] = m
		}
		note := ""
		if m.note != "" {
			note = " " + m.note
		}
		fmt.Fprintf(stdout, "%s %s %s %s n=%d%s\n", w.name, d.name, ftoa(m.value), d.unit, m.n, note)
	}
	return res, nil
}

// calibrate runs k untraced passes of each workload on consecutive
// seeds and prints each metric's median and interquartile range, the
// spread the bounds in BENCHMARK.json are set from.
func calibrate(ctx context.Context, e *env, selected []workload, k int, stdout, stderr io.Writer) int {
	code := 0
	base := e.seed
	for _, w := range selected {
		values := map[string][]float64{}
		for i := 0; i < k; i++ {
			e.seed = base + int64(i)
			res, err := measure(ctx, e, w, io.Discard, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "hunipubench: %s seed %d: %v\n", w.name, e.seed, err)
				return 1
			}
			if !res.correct {
				code = 1
			}
			for name, m := range res.metrics {
				values[name] = append(values[name], m.value)
			}
		}
		for _, d := range metricDefs {
			xs, ok := values[d.name]
			if !ok {
				continue
			}
			q1, q3 := quartiles(xs)
			fmt.Fprintf(stdout, "%s %s median=%s q1=%s q3=%s rel_iqr=%.4f %s n=%d\n", w.name, d.name,
				ftoa(median(xs)), ftoa(q1), ftoa(q3), relIQR(xs), d.unit, len(xs))
		}
	}
	e.seed = base
	return code
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// findRoot walks up from the working directory to the module the
// benchmark measures.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && slices.Contains(strings.Split(string(data), "\n"), "module hunipu") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no enclosing directory has a go.mod for module hunipu")
		}
		dir = parent
	}
}

// cpuModel names the host CPU for the header, or its architecture when
// the model is not readable.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
