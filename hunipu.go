// Package hunipu is the public API of the HunIPU reproduction: an
// IPU-optimised Hungarian algorithm (ICDE 2024) for the Linear Sum
// Assignment Problem, together with the baselines the paper evaluates
// against and the graph-alignment use case of its Section V-C.
//
// The IPU and GPU are simulated (see DESIGN.md): results are exact,
// and device timings are modeled from each architecture's cost model.
//
// Quickstart:
//
//	res, err := hunipu.Solve([][]float64{
//		{4, 1, 3},
//		{2, 0, 5},
//		{3, 2, 2},
//	})
//	// res.Assignment == [1, 0, 2] (row → column), res.Cost == 5
//
// Device selection: hunipu.Solve(costs, hunipu.OnGPU()) runs the
// FastHA baseline, hunipu.OnCPU() the Jonker–Volgenant CPU solver; the
// default is the HunIPU algorithm on the simulated Mk2 IPU.
package hunipu

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"hunipu/internal/core"
	"hunipu/internal/faultinject"
	"hunipu/internal/graphalign"
	"hunipu/internal/lsap"
)

// Device selects which solver executes a Solve call.
type Device int

// Available devices.
const (
	// DeviceIPU runs HunIPU on the simulated Graphcore Mk2 (default).
	DeviceIPU Device = iota
	// DeviceGPU runs the FastHA baseline on the simulated A100.
	DeviceGPU
	// DeviceCPU runs the Jonker–Volgenant solver natively.
	DeviceCPU
)

// String implements fmt.Stringer.
func (d Device) String() string {
	switch d {
	case DeviceIPU:
		return "IPU"
	case DeviceGPU:
		return "GPU"
	case DeviceCPU:
		return "CPU"
	default:
		return fmt.Sprintf("Device(%d)", int(d))
	}
}

type config struct {
	device   Device
	maximize bool
	ipuOpts  core.Options

	// Reliability knobs; see reliability.go and guard.go.
	fallback  []Device
	fault     *faultinject.Schedule
	faultErr  error
	injectors map[Device]faultinject.Injector
	retries   int
	guard     GuardPolicy
	guardSet  bool

	// Sharding knobs; see sharding.go.
	shards    int
	sharded   bool
	minFabric int

	// Degradation-ladder knobs; see quality.go.
	quality Quality
	warmU   []float64
	warmV   []float64
	warmSet bool
}

// Option configures a Solve or Align call.
type Option func(*config)

// OnIPU selects the HunIPU solver (the default).
func OnIPU() Option { return func(c *config) { c.device = DeviceIPU } }

// OnGPU selects the FastHA GPU baseline. Sizes that are not powers of
// two are zero-padded, as the paper does.
func OnGPU() Option { return func(c *config) { c.device = DeviceGPU } }

// OnCPU selects the sequential Jonker–Volgenant baseline.
func OnCPU() Option { return func(c *config) { c.device = DeviceCPU } }

// OnDevice selects the primary device dynamically — the programmatic
// form of OnIPU/OnGPU/OnCPU for callers (CLI flags, serving layers)
// that route by value. An unknown device is rejected with an error
// wrapping ErrInvalidOption.
func OnDevice(d Device) Option { return func(c *config) { c.device = d } }

// Maximize solves a maximisation problem (e.g. similarities) instead
// of the default minimisation.
func Maximize() Option { return func(c *config) { c.maximize = true } }

// WithIPUOptions overrides the HunIPU solver configuration (device
// shape, ablation switches). See package internal/core for fields.
func WithIPUOptions(o core.Options) Option { return func(c *config) { c.ipuOpts = o } }

// Result is the outcome of a Solve call.
type Result struct {
	// Assignment maps each row to its matched column.
	Assignment []int
	// Cost is the total cost (or total value when maximising) of the
	// assignment under the input matrix.
	Cost float64
	// Device is the solver that ran.
	Device Device
	// Modeled is the simulated device time summed over every attempt in
	// Report, the failed and refused ones included: each device the
	// request touched (zero for the CPU solver).
	Modeled time.Duration
	// Wall is the real time the call took end to end.
	Wall time.Duration
	// Report describes fault recovery and device fallback during the
	// solve; see the Report type in reliability.go.
	Report *Report
	// Quality is the tier that served the request: Exact (the default)
	// or Bounded(ε) when WithQuality degraded the solve. Gap is the
	// certified normalized optimality gap actually attested — 0 for
	// exact solves, at most Quality.Epsilon() for bounded ones. A
	// bounded answer that cannot be attested within ε is never
	// returned: the device that refused it serves the request at
	// Exact, and Quality reports Exact.
	Quality Quality
	Gap     float64
	// Duals is the dual-potential certificate of the solve when the
	// serving solver produced one: the CPU solver, guarded IPU solves
	// (WithGuard — the guard-mode graph is what maintains explicit
	// duals on device), and every bounded solve. Unguarded IPU exact
	// solves and the FastHA GPU baseline do not track duals, and leave
	// this nil. Feed it to WithWarmStart on the next solve of a
	// similar matrix.
	Duals *Duals
}

// Solve computes an optimal assignment of rows to columns for the
// cost matrix. All entries must be finite — NaN and ±Inf inputs are
// rejected with an error — and integer-valued matrices are solved
// exactly on every device.
//
// Rectangular matrices are supported: with more columns than rows the
// surplus columns stay unmatched; with more rows than columns the
// cheapest-to-drop rows are left unassigned (−1 in the result), which
// is the standard rectangular-LSAP semantics.
func Solve(costs [][]float64, opts ...Option) (*Result, error) {
	return SolveContext(context.Background(), costs, opts...)
}

// ErrInvalidInput is wrapped by every cost-matrix validation failure
// (ragged rows, NaN/Inf entries, cost ranges too wide), so
// front-ends can map bad requests to a client error without matching
// message text. Match with errors.Is.
var ErrInvalidInput = errors.New("invalid input")

// rangeHeadroom is how far below float64's limit ValidateCosts keeps
// a matrix's arithmetic. An ε-scaling auction runs one phase per
// factor of lsap.AuctionEpsScale between its benefit range and its ε
// floor, up to about 512 phases at float64 scale, and every phase
// re-bids each row from scratch, so prices climb by up to about the
// range per phase. Without the headroom, a range near the limit drives
// prices to +Inf and the auction bids forever.
const rangeHeadroom = 1 << 10

// ValidateCosts rejects ragged inputs and entries no solver can
// process, NaN and ±Inf, each wrapping ErrInvalidInput. It also
// rejects a cost range whose arithmetic overflows: n·(|max| + |min|),
// with n the padded size, must stay finite with rangeHeadroom to
// spare. That one bound covers the auctions' benefit range max − min
// and prices, the cost of every matching and of every dual bound, and
// Maximize's converted entries max − c. Solve and every device share
// this check; a front end calls it to refuse a bad matrix before it
// spends anything on it.
func ValidateCosts(costs [][]float64) error {
	if len(costs) == 0 {
		return nil
	}
	cols := len(costs[0])
	hi, lo := math.Inf(-1), math.Inf(1)
	for i, r := range costs {
		if len(r) != cols {
			return fmt.Errorf("hunipu: row %d has %d entries, want %d (ragged matrix): %w", i, len(r), cols, ErrInvalidInput)
		}
		for j, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("hunipu: cost[%d][%d] = %g, all entries must be finite: %w", i, j, v, ErrInvalidInput)
			}
			hi, lo = max(hi, v), min(lo, v)
		}
	}
	if n := max(len(costs), cols); cols > 0 && math.IsInf(float64(n)*(math.Abs(hi)+math.Abs(lo))*rangeHeadroom, 0) {
		return fmt.Errorf("hunipu: costs span [%g, %g], too wide for float64 arithmetic at %d×%d: %w", lo, hi, n, n, ErrInvalidInput)
	}
	return nil
}

// squareMatrix validates the input, applies max→min conversion to the
// real entries, and pads rectangular inputs to a square minimisation
// problem with zero-cost dummy rows or columns. Only one side is ever
// padded, so dummies can never let a real row escape a real column
// assignment it would otherwise need.
func squareMatrix(costs [][]float64, maximize bool) (m *lsap.Matrix, rows, cols int, err error) {
	rows = len(costs)
	if rows == 0 {
		return lsap.NewMatrix(0), 0, 0, nil
	}
	cols = len(costs[0])
	if err := ValidateCosts(costs); err != nil {
		return nil, 0, 0, err
	}
	maxV := 0.0
	if maximize {
		for _, r := range costs {
			for _, v := range r {
				if v > maxV {
					maxV = v
				}
			}
		}
	}
	n := rows
	if cols > n {
		n = cols
	}
	m = lsap.NewMatrix(n)
	for i, r := range costs {
		for j, v := range r {
			if maximize {
				v = maxV - v
			}
			m.Set(i, j, v)
		}
	}
	return m, rows, cols, nil
}

// AlignResult is the outcome of an Align call.
type AlignResult struct {
	// Mapping maps each node of the first graph to a node of the
	// second.
	Mapping []int
	// Accuracy is the fraction of nodes mapped to themselves — the
	// node-correctness metric when the second graph is a noisy copy of
	// the first with unchanged labels. Ignore it otherwise.
	Accuracy float64
	// Device, Modeled, Wall as in Result (Modeled covers the LSAP
	// solve only; GRAMPA runs host-side in both the paper and here).
	Device  Device
	Modeled time.Duration
	Wall    time.Duration
}

// Align computes a node correspondence between two equal-size graphs
// using the paper's Section V-C pipeline: GRAMPA spectral similarity
// (η = 0.2) followed by a Hungarian assignment on the selected device.
// Each graph is given as an edge list over nodes 0..n-1.
func Align(n int, edges1, edges2 [][2]int, opts ...Option) (*AlignResult, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	start := time.Now()
	g1 := graphalign.NewGraph(n)
	for _, e := range edges1 {
		g1.AddEdge(e[0], e[1])
	}
	g2 := graphalign.NewGraph(n)
	for _, e := range edges2 {
		g2.AddEdge(e[0], e[1])
	}
	prob, err := graphalign.BuildAlignment(g1, g2, graphalign.DefaultEta)
	if err != nil {
		return nil, err
	}
	res, err := Solve(rows(prob.Cost), opts...)
	if err != nil {
		return nil, err
	}
	return &AlignResult{
		Mapping:  res.Assignment,
		Accuracy: graphalign.Accuracy(res.Assignment, prob.Truth),
		Device:   res.Device,
		Modeled:  res.Modeled,
		Wall:     time.Since(start),
	}, nil
}

// rows converts an internal matrix back to the public representation.
func rows(m *lsap.Matrix) [][]float64 {
	out := make([][]float64, m.N)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}
