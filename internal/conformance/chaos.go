package conformance

import (
	"errors"
	"fmt"
	"math/rand"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/fastha"
	"hunipu/internal/faultinject"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
)

// ChaosEntry is one solver that accepts a fault injector. Chaos runs
// are the robustness counterpart of the conformance grid: instead of
// asking "do all solvers agree?", they ask "under injected faults,
// does every run end in either a certified optimum or a typed error?"
// — the invariant being that a fault never silently corrupts a result.
type ChaosEntry struct {
	// Name matches the solver's Name().
	Name string
	// New builds a solver wired to the injector. Retries > 0 turns on
	// checkpoint recovery where the solver supports it.
	New func(inj faultinject.Injector, retries int) (lsap.Solver, error)
}

// ChaosRegistry returns every solver that accepts fault injection.
// The CPU baselines run natively (nothing to inject) and the GPU
// auction predates the injection hooks, so they are absent by design.
func ChaosRegistry() []ChaosEntry {
	return []ChaosEntry{
		{
			Name: "HunIPU",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				return core.New(core.Options{Config: smallIPU(), Fault: inj, MaxRetries: retries})
			},
		},
		{
			Name: "HunIPU-nocompress",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				return core.New(core.Options{
					Config: smallIPU(), DisableCompression: true, Fault: inj, MaxRetries: retries,
				})
			},
		},
		{
			Name: "HunIPU-2D",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				return core.New(core.Options{Config: smallIPU(), Use2D: true, Fault: inj, MaxRetries: retries})
			},
		},
		{
			Name: "HunIPU-shard2",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				return fabricIPU(2, core.Options{Fault: inj, MaxRetries: retries})
			},
		},
		{
			Name: "HunIPU-shard4",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				return fabricIPU(4, core.Options{Fault: inj, MaxRetries: retries})
			},
		},
		{
			Name: "FastHA",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				s, err := fastha.New(fastha.Options{Fault: inj})
				if err != nil {
					return nil, err
				}
				return paddedFastHA{s}, nil
			},
		},
		{
			Name: "IPU-Auction",
			New: func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
				return ipuauction.New(ipuauction.Options{Config: smallIPU(), Fault: inj, MaxRetries: retries})
			},
		},
	}
}

// ChaosConfig parameterises a chaos sweep.
type ChaosConfig struct {
	// Schedules is how many random fault schedules to draw per solver.
	Schedules int
	// Sizes are the instance sizes each schedule is run against.
	Sizes []int
	// Retries is the recovery budget handed to each solver.
	Retries int
	// Seed makes the sweep reproducible end to end: it drives both the
	// drawn schedules and the generated instances.
	Seed int64
	// Tol as in Config.
	Tol float64
}

// DefaultChaosConfig draws enough schedules to cover every fault
// class, trigger shape, and phase filter against each solver.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{Schedules: 60, Sizes: []int{8, 13}, Retries: 3, Seed: 1}
}

// ChaosOutcome classifies one chaos run.
type ChaosOutcome int

// Chaos run classifications.
const (
	// ChaosClean: no fault fired; the run must be certified-optimal.
	ChaosClean ChaosOutcome = iota
	// ChaosSurvived: faults fired and the solver still produced a
	// certified optimum (recovery absorbed them).
	ChaosSurvived
	// ChaosTypedError: the run failed with a typed fault or a
	// context error — the accepted failure mode.
	ChaosTypedError
	// ChaosViolation: the invariant broke — a wrong or uncertified
	// answer, or an untyped error after injection.
	ChaosViolation
)

// ChaosReport aggregates a sweep.
type ChaosReport struct {
	Runs       int
	Clean      int
	Survived   int
	TypedError int
	// Violations carry a reproducer: solver, schedule spec, size.
	Violations []string
}

// RunChaos sweeps random fault schedules over every chaos-capable
// solver and enforces the robustness invariant: every run ends in a
// certified optimum or a typed error, never a silently wrong answer.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Schedules <= 0 {
		cfg = DefaultChaosConfig()
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ct := NewCertifier()
	ct.Tol = tol
	ref := cpuhung.JV{}
	report := &ChaosReport{}

	// One instance per size, fault-free reference cost certified once.
	type inst struct {
		m    *lsap.Matrix
		cost float64
	}
	var instances []inst
	for _, n := range cfg.Sizes {
		m := genUniform(rand.New(rand.NewSource(rng.Int63())), n)
		sol, err := ref.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("chaos: reference solve n=%d: %w", n, err)
		}
		if err := ct.Certify(m, sol); err != nil {
			return nil, fmt.Errorf("chaos: reference certificate n=%d: %w", n, err)
		}
		instances = append(instances, inst{m: m, cost: sol.Cost})
	}

	schedules := make([]*faultinject.Schedule, cfg.Schedules)
	for i := range schedules {
		schedules[i] = faultinject.RandomSchedule(rng)
	}

	for _, e := range ChaosRegistry() {
		for _, sched := range schedules {
			for _, in := range instances {
				// Each run gets a private clone: fire counters are
				// per-run state, the spec is the shared plan.
				clone := sched.Clone()
				s, err := e.New(clone, cfg.Retries)
				if err != nil {
					return nil, fmt.Errorf("chaos: %s constructor: %w", e.Name, err)
				}
				report.Runs++
				sol, err := s.Solve(in.m.Clone())
				switch outcome := classifyChaos(ct, in.m, in.cost, tol, sol, err, clone.Fired()); outcome {
				case ChaosClean:
					report.Clean++
				case ChaosSurvived:
					report.Survived++
				case ChaosTypedError:
					report.TypedError++
				default:
					report.Violations = append(report.Violations, fmt.Sprintf(
						"%s n=%d schedule %q: err=%v", e.Name, in.m.N, sched.String(), err))
				}
			}
		}
	}
	return report, nil
}

// classifyChaos applies the invariant to one run.
func classifyChaos(ct *Certifier, m *lsap.Matrix, want, tol float64, sol *lsap.Solution, err error, fired int64) ChaosOutcome {
	if err != nil {
		var fe *faultinject.FaultError
		if errors.As(err, &fe) {
			return ChaosTypedError
		}
		return ChaosViolation
	}
	if err := ct.Certify(m, sol); err != nil {
		return ChaosViolation
	}
	if diff := sol.Cost - want; diff > tol*(1+want) || diff < -tol*(1+want) {
		return ChaosViolation
	}
	if fired > 0 {
		return ChaosSurvived
	}
	return ChaosClean
}
