package conformance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"hunipu"
	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/faultinject"
	"hunipu/internal/lsap"
)

// This file sweeps the degradation ladder's bounded-quality contract
// under fault injection, through the *public* API: every run of
// hunipu.SolveContext at WithQuality(Bounded(ε)) must end in an answer
// certified within ε of optimal — checked here against an independent
// exact reference, not the solver's own certificate — or in a typed
// error (*faultinject.FaultError from the injected fault classes,
// *lsap.GapError when the solver refuses to attest within ε). The ε=0
// tier degenerates to the exact contract and re-proves the
// AnnouncedSweep invariant through the quality knob. It stays apart
// from Sweep because its contract differs: answers within ε of an
// independent reference, through the public API.

// BoundedChaosConfig parameterises a bounded-quality fault sweep.
type BoundedChaosConfig struct {
	// Schedules is how many random fault schedules to draw per ε tier.
	Schedules int
	// Epsilons are the quality tiers swept; 0 means Bounded(0), the
	// exact contract.
	Epsilons []float64
	// Sizes are the instance sizes each schedule is run against.
	Sizes []int
	// Retries is the recovery budget handed to each solve.
	Retries int
	// Seed makes the sweep reproducible end to end.
	Seed int64
	// Tol as in Config.
	Tol float64
}

// DefaultBoundedChaosConfig meets the acceptance floor: ≥50 seeded
// fault schedules per ε tier, tiers {0, 0.01, 0.1}.
func DefaultBoundedChaosConfig() BoundedChaosConfig {
	return BoundedChaosConfig{
		Schedules: 50,
		Epsilons:  []float64{0, 0.01, 0.1},
		Sizes:     []int{10},
		Retries:   3,
		Seed:      2,
	}
}

// BoundedChaosReport aggregates a bounded sweep. The headline
// invariant: Wrong and Untyped stay empty — every run delivered an
// answer within its tier's ε of the independently computed optimum
// (with a self-consistent certificate) or failed typed.
type BoundedChaosReport struct {
	Runs int
	// Clean: no fault fired, answer within ε.
	Clean int
	// Survived: faults fired, retries recovered, answer still within ε.
	Survived int
	// TypedFaults: runs that failed with a typed *faultinject.FaultError.
	TypedFaults int
	// GapRefusals: runs where the solver withheld its answer with a
	// typed *lsap.GapError rather than return something it could not
	// certify within ε.
	GapRefusals int
	// MaxGap is the worst certified gap any successful run reported,
	// and MaxTrueGap the worst gap measured against the exact
	// reference (MaxTrueGap ≤ MaxGap up to tolerance: certificates may
	// be loose, never optimistic).
	MaxGap     float64
	MaxTrueGap float64
	// Wrong lists reproducers for runs whose answer exceeded ε against
	// the exact reference, mis-reported its own gap or cost, or failed
	// its dual certificate.
	Wrong []string
	// Untyped lists reproducers for runs that failed with an untyped
	// error.
	Untyped []string
}

// boundedRunCheck certifies one successful run against the exact
// reference cost and the run's own certificate. It returns a
// description of the first violation, or "".
func boundedRunCheck(m *lsap.Matrix, refCost, eps, tol float64, res *hunipu.Result) string {
	n := m.N
	asg := lsap.Assignment(res.Assignment)
	if err := asg.Validate(n); err != nil {
		return err.Error()
	}
	if cost := asg.Cost(m); cost-res.Cost > tol*(1+refCost) || res.Cost-cost > tol*(1+refCost) {
		return fmt.Sprintf("reported cost %g, assignment costs %g", res.Cost, cost)
	}
	if g := lsap.NormalizedGap(res.Cost, refCost); g > eps+tol {
		return fmt.Sprintf("true gap %g exceeds ε=%g", g, eps)
	}
	if res.Gap > eps+tol {
		return fmt.Sprintf("certified gap %g exceeds ε=%g", res.Gap, eps)
	}
	if res.Duals != nil {
		p := lsap.Potentials{U: res.Duals.U, V: res.Duals.V}
		if err := lsap.VerifyOptimalWithBound(m, asg, p, eps+tol); err != nil {
			return "dual certificate rejected: " + err.Error()
		}
	}
	return ""
}

// RunBoundedChaos sweeps random fault schedules over the public solve
// path at every ε tier in cfg.Epsilons, on the simulated IPU.
func RunBoundedChaos(cfg BoundedChaosConfig) (*BoundedChaosReport, error) {
	if cfg.Schedules <= 0 {
		cfg = DefaultBoundedChaosConfig()
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ref := cpuhung.JV{}
	report := &BoundedChaosReport{}

	type inst struct {
		m     *lsap.Matrix
		costs [][]float64
		cost  float64
	}
	var instances []inst
	for _, n := range cfg.Sizes {
		m := genUniform(rand.New(rand.NewSource(rng.Int63())), n)
		sol, err := ref.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("boundedchaos: reference solve n=%d: %w", n, err)
		}
		costs := make([][]float64, n)
		for i := range costs {
			costs[i] = append([]float64(nil), m.Row(i)...)
		}
		instances = append(instances, inst{m: m, costs: costs, cost: sol.Cost})
	}

	schedules := make([]*faultinject.Schedule, cfg.Schedules)
	for i := range schedules {
		schedules[i] = faultinject.RandomSchedule(rng)
	}

	for _, eps := range cfg.Epsilons {
		for _, sched := range schedules {
			for _, in := range instances {
				clone := sched.Clone()
				report.Runs++
				//hunipulint:ignore ctxflow sweeps are uncancellable by design: every run finishes or fails on its own
				res, err := hunipu.SolveContext(context.Background(), in.costs,
					hunipu.OnIPU(),
					hunipu.WithIPUOptions(core.Options{Config: smallIPU(), MaxSupersteps: 20000}),
					hunipu.WithQuality(hunipu.Bounded(eps)),
					hunipu.WithInjector(hunipu.DeviceIPU, clone),
					hunipu.WithRecovery(cfg.Retries),
				)
				repro := func(why string) string {
					return fmt.Sprintf("ε=%g n=%d schedule %q: %s", eps, in.m.N, sched.String(), why)
				}
				if err != nil {
					var fe *faultinject.FaultError
					var ge *lsap.GapError
					switch {
					case errors.As(err, &ge):
						report.GapRefusals++
					case errors.As(err, &fe):
						report.TypedFaults++
					default:
						report.Untyped = append(report.Untyped, repro("err="+err.Error()))
					}
					continue
				}
				if why := boundedRunCheck(in.m, in.cost, eps, tol, res); why != "" {
					report.Wrong = append(report.Wrong, repro(why))
					continue
				}
				if res.Gap > report.MaxGap {
					report.MaxGap = res.Gap
				}
				if g := lsap.NormalizedGap(res.Cost, in.cost); g > report.MaxTrueGap {
					report.MaxTrueGap = g
				}
				if clone.Fired() > 0 {
					report.Survived++
				} else {
					report.Clean++
				}
			}
		}
	}
	return report, nil
}
