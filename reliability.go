package hunipu

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/fastha"
	"hunipu/internal/faultinject"
	"hunipu/internal/gpuauction"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// ErrInvalidOption is wrapped by every option-validation failure
// surfaced from Solve/SolveContext: negative retry budgets, duplicate
// devices in the fallback chain, unknown devices.
// Match with errors.Is.
var ErrInvalidOption = errors.New("invalid option")

// WithFallback appends a degradation chain: when the primary device
// fails with anything other than a cancellation, the solve is retried
// on each fallback device in order, e.g.
//
//	hunipu.SolveContext(ctx, costs,
//		hunipu.WithFallback(hunipu.DeviceGPU, hunipu.DeviceCPU))
//
// runs HunIPU on the IPU, degrades to the FastHA GPU baseline if the
// IPU hard-faults, and finally to the CPU Jonker–Volgenant solver.
// The Report records every attempt and which device ultimately served.
// A chain that repeats a device (including the primary) is rejected
// with an error wrapping ErrInvalidOption.
func WithFallback(devices ...Device) Option {
	return func(c *config) { c.fallback = append(c.fallback, devices...) }
}

// WithFaultSchedule installs a deterministic fault-injection schedule,
// parsed from the faultinject spec grammar, e.g.
// "seed=7; exchange every=40 p=0.5; reset at=900". Each device attempt
// gets a fresh clone of the schedule, so a rule consumed on the
// primary still fires on a fallback. A malformed spec surfaces as an
// error from Solve/SolveContext.
func WithFaultSchedule(spec string) Option {
	return func(c *config) {
		s, err := faultinject.ParseSchedule(spec)
		if err != nil {
			c.faultErr = err
			return
		}
		c.fault = s
	}
}

// WithInjector installs a fault injector on one device's attempts.
// Unlike WithFaultSchedule the injector is NOT cloned per attempt: the
// same stateful injector is shared across every solve that passes it,
// which is what a serving layer needs to model a persistently sick
// device whose fault budget drains across requests (a times-bounded
// schedule stops firing once exhausted, letting the device recover).
// An injector set for a device takes precedence over WithFaultSchedule
// on that device. The CPU solver runs natively and ignores injectors.
func WithInjector(d Device, inj faultinject.Injector) Option {
	return func(c *config) {
		if c.injectors == nil {
			c.injectors = make(map[Device]faultinject.Injector)
		}
		c.injectors[d] = inj
	}
}

// WithRecovery enables transient-fault recovery on the simulated
// devices: up to maxRetries resumes from the last superstep
// checkpoint, each at once. Faults fire on the superstep clock, so a
// wait before a retry would change no outcome, only spend the
// deadline. A negative maxRetries is rejected with an error wrapping
// ErrInvalidOption.
func WithRecovery(maxRetries int) Option {
	return func(c *config) { c.retries = maxRetries }
}

// Attempt is one device try within a solve.
type Attempt struct {
	// Device is the device tried.
	Device Device
	// Quality is the tier this attempt ran at, Gap the normalized
	// optimality gap it certified (0 on the exact path), and
	// WarmStarted whether a WithWarmStart prior seeded it.
	Quality     Quality
	Gap         float64
	WarmStarted bool
	// Err is why the attempt failed (nil for the serving attempt).
	Err error
	// Wall is the real time this attempt took, queueing excluded, and
	// Modeled the simulated device time it spent (zero on the CPU). A
	// failed attempt, or a bounded one the certificate refused, reports
	// the device time it spent before it ended.
	Wall    time.Duration
	Modeled time.Duration
	// Retries counts transient faults survived on this device via
	// checkpoint-resume or transfer retry, on a failed attempt too.
	Retries int
	// CheckpointsSaved and CheckpointsRestored describe the recovery
	// machinery's work during the attempt, failed or not (IPU devices
	// only).
	CheckpointsSaved    int
	CheckpointsRestored int
	// Faults counts faults injected into this attempt, including the
	// transient ones that recovery absorbed.
	Faults int64
	// GuardTrips counts silent-corruption detections (checksum
	// mismatches, invariant-probe failures, output attestation and
	// structural checks) during the attempt; see
	// WithGuard. RollbackEpochs counts checkpoint epochs discarded as
	// poisoned during certified rollback, and DetectionLatency is the
	// worst injection-to-detection distance in supersteps (0 when
	// nothing was detected). GuardCycles is the modeled cycle cost of
	// the guard machinery (IPU attempts only).
	GuardTrips       int
	RollbackEpochs   int
	DetectionLatency int64
	GuardCycles      int64
	// IPUDetail carries the full device profile of a successful IPU
	// attempt (stats, per-compute-set breakdown when profiling is on,
	// recovery report); nil for other devices and failed attempts.
	IPUDetail *core.Result
	// GPUDetail is the FastHA profile of a successful GPU attempt.
	GPUDetail *fastha.Result
	// ShardDetail is the fabric report of a sharded IPU attempt
	// (WithShards): chips at start and end, the chips lost in loss
	// order, the moves onto the survivors that absorbed those losses,
	// and the lost chips dropped because the guard kept catching them
	// corrupting state. It is nil for unsharded attempts. Unlike
	// IPUDetail it is populated even when the attempt failed, so the
	// Report shows what the fabric survived before the fallback ladder
	// took over.
	ShardDetail *core.Fabric
}

// Report describes how a solve reached its answer.
type Report struct {
	// Primary is the requested device.
	Primary Device
	// Served is the device whose answer was returned.
	Served Device
	// FellBack is true when Served differs from Primary.
	FellBack bool
	// Attempts lists every device tried, in order.
	Attempts []Attempt
}

// Retries sums transient faults survived across all attempts.
func (r *Report) Retries() int {
	var n int
	for _, a := range r.Attempts {
		n += a.Retries
	}
	return n
}

// ChainError is returned by Solve/SolveContext when every device in
// the fallback chain failed. It carries the Report of all attempts so
// callers (e.g. a serving layer feeding circuit breakers) can see
// which device failed how; Unwrap exposes the last device's error, so
// errors.Is/As against typed faults keep working.
type ChainError struct {
	// Report records every failed attempt.
	Report *Report
	// Err is the final device's failure.
	Err error
}

// Error implements error.
func (e *ChainError) Error() string {
	return fmt.Sprintf("hunipu: all %d device attempts failed: %v", len(e.Report.Attempts), e.Err)
}

// Unwrap exposes the last attempt's error.
func (e *ChainError) Unwrap() error { return e.Err }

// validate checks the assembled option set; every failure wraps
// ErrInvalidOption (except fault-spec parse errors, which surface the
// faultinject error) so a serving layer can shed bad requests with a
// typed 4xx rather than a 5xx.
func (c *config) validate() error {
	if c.faultErr != nil {
		return fmt.Errorf("hunipu: %w", c.faultErr)
	}
	if c.retries < 0 {
		return fmt.Errorf("hunipu: WithRecovery: maxRetries = %d, want ≥ 0: %w", c.retries, ErrInvalidOption)
	}
	if !c.device.known() {
		return fmt.Errorf("hunipu: unknown device %v: %w", c.device, ErrInvalidOption)
	}
	if !c.guard.valid() {
		return fmt.Errorf("hunipu: WithGuard: unknown policy %v: %w", c.guard, ErrInvalidOption)
	}
	if c.sharded && c.shards < 1 {
		return fmt.Errorf("hunipu: WithShards: k = %d, want ≥ 1: %w", c.shards, ErrInvalidOption)
	}
	if c.minFabric != 0 {
		if !c.sharded {
			return fmt.Errorf("hunipu: WithMinShardFabric requires WithShards: %w", ErrInvalidOption)
		}
		if c.minFabric < 1 || c.minFabric > c.shards {
			return fmt.Errorf("hunipu: WithMinShardFabric: min = %d, want in [1, %d]: %w", c.minFabric, c.shards, ErrInvalidOption)
		}
	}
	if !c.quality.valid() {
		return fmt.Errorf("hunipu: WithQuality: ε = %g, want finite ≥ 0: %w", c.quality.Epsilon(), ErrInvalidOption)
	}
	if c.quality.IsBounded() && c.quality.Epsilon() > 0 && c.sharded {
		return fmt.Errorf("hunipu: bounded quality does not compose with WithShards: %w", ErrInvalidOption)
	}
	seen := map[Device]bool{c.device: true}
	for _, d := range c.fallback {
		if !d.known() {
			return fmt.Errorf("hunipu: WithFallback: unknown device %v: %w", d, ErrInvalidOption)
		}
		if seen[d] {
			return fmt.Errorf("hunipu: WithFallback: device %v appears twice in the chain: %w", d, ErrInvalidOption)
		}
		seen[d] = true
	}
	return nil
}

// known reports whether d is one of the defined devices.
func (d Device) known() bool {
	return d == DeviceIPU || d == DeviceGPU || d == DeviceCPU
}

// SolveContext is Solve with cancellation, deadline, fault-injection,
// and device-degradation support. Cancellation mid-solve returns
// ctx.Err() promptly (checked every BSP superstep on the IPU, every
// kernel launch on the GPU, every augmenting step on the CPU) and is
// never masked by a fallback. The returned Result carries a Report of
// every device attempt. When every device in the chain fails, the
// error is a *ChainError wrapping the last device's failure.
func SolveContext(ctx context.Context, costs [][]float64, opts ...Option) (*Result, error) {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	m, rowsN, colsN, err := squareMatrix(costs, c.maximize)
	if err != nil {
		return nil, err
	}
	start := time.Now()

	// Degradation-ladder preparation: clamp any warm-start prior to
	// feasibility for this matrix, then pick the tier's input.
	// Bounded(ε>0) consumes the prior as auction prices; the exact path
	// consumes it by dual pre-reduction (tight prior edges become zeros,
	// so the solved prefix of a streaming workload costs no augmenting
	// work).
	var prior *lsap.Potentials
	if c.warmSet && m.N > 0 {
		prior, err = c.prepWarm(m, rowsN, colsN)
		if err != nil {
			return nil, err
		}
	}
	bounded := c.quality.IsBounded() && c.quality.Epsilon() > 0
	in := m
	if prior != nil && !bounded {
		in = reduceMatrix(m, *prior)
	}

	devices := append([]Device{c.device}, c.fallback...)
	report := &Report{Primary: c.device, Served: c.device}
	var (
		sol     *lsap.Solution
		att     Attempt
		lastErr error
	)
	for _, d := range devices {
		t0 := time.Now()
		sol, att = c.solveOn(ctx, d, c.quality, in, prior)
		// An answer the auction cannot certify within ε (its prices at a
		// scale that rounds the small costs away) is served at Exact on
		// the same device, cold, before the ladder moves on.
		var ge *lsap.GapError
		if errors.As(att.Err, &ge) {
			att.Wall = time.Since(t0)
			report.Attempts = append(report.Attempts, att)
			t0 = time.Now()
			sol, att = c.solveOn(ctx, d, Exact(), m, nil)
		}
		att.Wall = time.Since(t0)
		report.Attempts = append(report.Attempts, att)
		if att.Err == nil {
			report.Served = d
			report.FellBack = d != c.device
			break
		}
		lastErr = att.Err
		// Cancellation is the caller's decision; degrading to another
		// device would override it.
		if errors.Is(att.Err, context.Canceled) || errors.Is(att.Err, context.DeadlineExceeded) {
			return nil, att.Err
		}
	}
	if sol == nil {
		return nil, &ChainError{Report: report, Err: lastErr}
	}

	a := make([]int, rowsN)
	var cost float64
	for i := 0; i < rowsN; i++ {
		j := sol.Assignment[i]
		if j >= colsN {
			j = -1
		} else {
			cost += costs[i][j]
		}
		a[i] = j
	}
	res := &Result{
		Assignment: a,
		Cost:       cost,
		Device:     report.Served,
		Wall:       time.Since(start),
		Report:     report,
		Quality:    att.Quality,
		Gap:        sol.Gap,
	}
	for _, a := range report.Attempts {
		res.Modeled += a.Modeled
	}
	if sol.Potentials != nil {
		// An exact solve on the pre-reduced matrix certifies c−u′−v′;
		// adding the prior back makes the potentials a certificate for
		// the original matrix again, and trimming drops the padding.
		d := &Duals{
			U: append([]float64(nil), sol.Potentials.U[:rowsN]...),
			V: append([]float64(nil), sol.Potentials.V[:colsN]...),
		}
		if prior != nil && !bounded {
			for i := range d.U {
				d.U[i] += prior.U[i]
			}
			for j := range d.V {
				d.V[j] += prior.V[j]
			}
		}
		res.Duals = d
	}
	return res, nil
}

// injectorFor resolves the injector for one device attempt: a shared
// WithInjector injector wins; otherwise the schedule is cloned so
// deterministic rules replay identically per device.
func (c *config) injectorFor(d Device) faultinject.Injector {
	if inj, ok := c.injectors[d]; ok {
		return inj
	}
	if s := c.fault.Clone(); s != nil {
		return s
	}
	return nil
}

// firedCount reads the fire counter of schedule-backed injectors (the
// only stateful kind the repo ships); other injectors report 0.
func firedCount(inj faultinject.Injector) int64 {
	if s, ok := inj.(*faultinject.Schedule); ok {
		return s.Fired()
	}
	return 0
}

// solveOn runs one device attempt at tier q. Bounded(ε>0) routes to
// the device's ε-scaling auction port (the IPU and GPU ports keep their
// architectures' machine models), which stops at the first phase whose
// readback the price-derived duals certify within ε, or refuses with a
// *lsap.GapError; that certificate against m replaces the guard
// layer's output attestation. Every other tier runs the device's exact
// solver. prior, when non-nil, is the clamped warm start the attempt
// consumes: its −v seeds the auction's prices, and an exact attempt's
// m is already pre-reduced by it.
func (c *config) solveOn(ctx context.Context, d Device, q Quality, m *lsap.Matrix, prior *lsap.Potentials) (*lsap.Solution, Attempt) {
	att := Attempt{Device: d, Quality: q, WarmStarted: prior != nil}
	eps := q.Epsilon()
	var warm []float64
	if eps > 0 && prior != nil {
		warm = make([]float64, m.N)
		for j, v := range prior.V {
			warm[j] = -v
		}
	}
	var (
		sol *lsap.Solution
		err error
	)
	switch d {
	case DeviceIPU:
		o := c.ipuOpts
		inj := c.injectorFor(d)
		if inj != nil {
			o.Fault = inj
		}
		if c.retries > 0 {
			o.MaxRetries = c.retries
		}
		before := firedCount(inj)
		var rec poplar.RunReport
		if eps > 0 {
			var s *ipuauction.Solver
			s, err = ipuauction.New(ipuauction.Options{Config: o.Config, MaxSupersteps: o.MaxSupersteps,
				Fault: o.Fault, MaxRetries: o.MaxRetries, Epsilon: eps, WarmPrices: warm})
			var r *ipuauction.Result
			if err == nil {
				r, err = s.SolveDetailedContext(ctx, m)
			}
			if r != nil {
				sol, att.Modeled, rec = r.Solution, r.Modeled, r.Recovery
			}
		} else {
			if c.sharded {
				o = c.shardOptions(o)
			}
			o.Guard = c.resolveGuard(o.Guard, inj)
			var s *core.Solver
			s, err = core.New(o)
			var r *core.Result
			if err == nil {
				r, err = s.SolveDetailedContext(ctx, m)
			}
			if r != nil {
				sol, att.Modeled, rec = r.Solution, r.Modeled, r.Recovery
				att.GuardCycles, att.ShardDetail = r.Stats.GuardCycles, r.Fabric
				if err == nil {
					att.IPUDetail = r
				}
			}
		}
		att.Faults = firedCount(inj) - before
		att.Retries, att.CheckpointsSaved, att.CheckpointsRestored = rec.Retries, rec.CheckpointsSaved, rec.CheckpointsRestored
		att.GuardTrips, att.RollbackEpochs, att.DetectionLatency = rec.GuardTrips, rec.RollbackEpochs, rec.DetectionLatency
	case DeviceGPU:
		if eps > 0 {
			var s *gpuauction.Solver
			s, err = gpuauction.New(gpuauction.Options{Epsilon: eps, WarmPrices: warm})
			var r *gpuauction.Result
			if err == nil {
				r, err = s.SolveDetailedContext(ctx, m)
			}
			if r != nil {
				sol, att.Modeled = r.Solution, r.Modeled
			}
		} else {
			inj := c.injectorFor(d)
			var s *fastha.Solver
			s, err = fastha.New(fastha.Options{Fault: inj})
			if err == nil {
				before := firedCount(inj)
				var r *fastha.Result
				r, err = s.SolvePaddedContext(ctx, m)
				att.Faults = firedCount(inj) - before
				if r != nil {
					sol, att.Modeled = r.Solution, r.Modeled
					if err == nil {
						att.GPUDetail = r
					}
				}
			}
		}
	case DeviceCPU:
		// The CPU runs natively on the host: no simulated device, no
		// injection — the always-available last resort.
		if eps > 0 {
			sol, err = (cpuhung.Auction{Epsilon: eps, WarmPrices: warm}).SolveContext(ctx, m)
		} else {
			sol, err = (cpuhung.JV{}).SolveContext(ctx, m)
		}
	default:
		err = fmt.Errorf("hunipu: unknown device %v", d)
	}
	if err != nil {
		att.Err = err
		return nil, att
	}
	att.Gap = sol.Gap
	return sol, att
}
