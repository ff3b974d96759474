package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/fastha"
	"hunipu/internal/faultinject"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// A Sweep is the robustness counterpart of the conformance grid:
// instead of asking "do all solvers agree?", it runs seeded random
// fault schedules against solvers and asks "does every run end in a
// certified optimum or a typed error?" — a fault must never silently
// corrupt a result. One driver serves every execution model; the four
// constructors below differ only in targets, schedule generator, sizes
// and seed.
type Sweep struct {
	// Name labels the sweep (and its guard policy) in reproducers.
	Name string
	// Groups lists the solvers swept. The targets of one group run the
	// same drawn schedules.
	Groups []Group
	// Draw draws one schedule; chips is the fabric size of the group it
	// is drawn for.
	Draw func(rng *rand.Rand, chips int) *faultinject.Schedule
	// Schedules is how many schedules each group draws.
	Schedules int
	// Sizes are the instance sizes every schedule runs against.
	Sizes []int
	// Retries is the recovery budget handed to each solver.
	Retries int
	// Seed draws the instances first, then each group's schedules in
	// group order, so the same seed replays the same sweep.
	Seed int64
}

// A Group is a list of targets that share one list of drawn schedules.
type Group struct {
	// Chips is the fabric size the group's schedules are drawn for.
	Chips   int
	Targets []Target
}

// A Target builds the solver for one run, wired to the run's private
// injector and the sweep's retry budget.
type Target func(inj faultinject.Injector, retries int) (lsap.Solver, error)

// hunIPU targets HunIPU built from o on a fabric of the given number of
// smallIPU chips; a multi-chip fabric survives losses down to one chip.
func hunIPU(chips int, o core.Options) Target {
	return func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
		o := o
		o.Fault, o.MaxRetries = inj, retries
		if chips > 1 {
			return fabricIPU(chips, o)
		}
		o.Config = smallIPU()
		return core.New(o)
	}
}

// hunIPUVariants targets single-chip HunIPU built from o and its two
// ablations: no compression and the 2D layout.
func hunIPUVariants(o core.Options) []Target {
	nocompress, twoD := o, o
	nocompress.DisableCompression = true
	twoD.Use2D = true
	return []Target{hunIPU(1, o), hunIPU(1, nocompress), hunIPU(1, twoD)}
}

// fabricGroups gives each fabric size its own group, one HunIPU fabric
// built from o each.
func fabricGroups(o core.Options, chips ...int) []Group {
	groups := make([]Group, len(chips))
	for i, k := range chips {
		groups[i] = Group{Chips: k, Targets: []Target{hunIPU(k, o)}}
	}
	return groups
}

// drawSilent adapts the variadic RandomSilentSchedule to Sweep.Draw;
// one chip draws exactly the single-chip schedule.
func drawSilent(rng *rand.Rand, chips int) *faultinject.Schedule {
	return faultinject.RandomSilentSchedule(rng, chips)
}

// AnnouncedSweep draws announced faults (RandomSchedule) against every
// solver that accepts an injector: 60 schedules per solver, enough to
// cover every fault class, trigger shape and phase filter. The CPU
// baselines run natively (nothing to inject) and the GPU auction has
// no injection hooks, so they are absent by design.
func AnnouncedSweep() Sweep {
	targets := append(hunIPUVariants(core.Options{}),
		hunIPU(2, core.Options{}),
		hunIPU(4, core.Options{}),
		func(inj faultinject.Injector, _ int) (lsap.Solver, error) {
			s, err := fastha.New(fastha.Options{Fault: inj})
			if err != nil {
				return nil, err
			}
			return paddedFastHA{s}, nil
		},
		func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
			return ipuauction.New(ipuauction.Options{Config: smallIPU(), Fault: inj, MaxRetries: retries})
		},
	)
	return Sweep{
		Name:   "announced",
		Groups: []Group{{Chips: 1, Targets: targets}},
		Draw: func(rng *rand.Rand, _ int) *faultinject.Schedule {
			return faultinject.RandomSchedule(rng)
		},
		Schedules: 60, Sizes: []int{8, 13}, Retries: 3, Seed: 1,
	}
}

// SilentSweep draws silent corruption (RandomSilentSchedule) against
// the single-chip HunIPU variants under guard: faults change live
// tensor data and raise nothing, so only the guard layer can turn them
// into rollbacks or typed *faultinject.CorruptionErrors. FastHA and the
// auction take injectors but have no guard, so a silent sweep over them
// could only prove the attack works. At poplar.GuardOff the sweep is
// the control experiment: Wrong lists the answers that got away.
func SilentSweep(guard poplar.GuardPolicy) Sweep {
	return Sweep{
		Name:      "silent@" + guard.String(),
		Groups:    []Group{{Chips: 1, Targets: hunIPUVariants(core.Options{Guard: guard, MaxSupersteps: 20000})}},
		Draw:      drawSilent,
		Schedules: 50, Sizes: []int{10}, Retries: 3, Seed: 2,
	}
}

// FabricLossSweep draws device-loss and link-loss schedules
// (RandomShardSchedule) for HunIPU fabrics of 2 and 4 chips, so chips
// die and links flap on every run shape. The fabrics are guarded at
// the sharded default: loud losses never trip the guard, but the sweep
// runs the configuration production fabrics run.
func FabricLossSweep() Sweep {
	return Sweep{
		Name:      "fabric-loss",
		Groups:    fabricGroups(core.Options{Guard: poplar.GuardChecksums}, 2, 4),
		Draw:      faultinject.RandomShardSchedule,
		Schedules: 50, Sizes: []int{8, 13}, Retries: 3, Seed: 1,
	}
}

// FabricSilentSweep draws silent corruption for HunIPU fabrics of 2 and
// 4 chips under guard: link flips, chip-memory flips and the
// single-chip silent classes land on state held on each chip, and half
// the schedules also lose a chip or flap a link. At poplar.GuardOff it
// is the fabric's control experiment.
func FabricSilentSweep(guard poplar.GuardPolicy) Sweep {
	return Sweep{
		Name:      "fabric-silent@" + guard.String(),
		Groups:    fabricGroups(core.Options{Guard: guard, MaxSupersteps: 20000}, 2, 4),
		Draw:      drawSilent,
		Schedules: 50, Sizes: []int{8, 13}, Retries: 3, Seed: 3,
	}
}

// SweepReport aggregates a sweep. The headline invariant, with any
// guard above off: Wrong and Untyped stay empty.
type SweepReport struct {
	Runs int
	// Clean: no fault fired, certified optimal.
	Clean int
	// Survived: faults fired and recovery absorbed them, certified
	// optimal.
	Survived int
	// TypedFaults: runs that failed with a typed *faultinject.FaultError.
	TypedFaults int
	// Corruptions: runs that failed with a typed
	// *faultinject.CorruptionError, directly or wrapped in a
	// *core.FabricError.
	Corruptions int
	// Detections counts guard trips, each once: the trips in a run's
	// recovery report (recovered and terminal), or, for a failed run
	// that returned no report, the terminal trip its typed error
	// records. MaxLatency is the worst injection-to-detection distance
	// in supersteps.
	Detections int
	MaxLatency int64
	// Rollbacks, ChipsLost, Reshards and Quarantined sum what HunIPU's
	// recovery did on every HunIPU run, failed fabric runs included:
	// checkpoint restores, chips dropped, moves onto survivor programs,
	// and chips dropped because the guard kept catching them.
	Rollbacks   int
	ChipsLost   int
	Reshards    int
	Quarantined int
	// Wrong lists reproducers for runs that returned an uncertified or
	// non-optimal answer with no error.
	Wrong []string
	// Untyped lists reproducers for runs that failed with an untyped
	// error.
	Untyped []string
}

// Run executes the sweep: every target runs each of its group's
// schedules against every instance, on a private clone of the
// schedule (fire counters are per-run state; the spec is the shared
// plan).
func (sw Sweep) Run() (*SweepReport, error) {
	rng := rand.New(rand.NewSource(sw.Seed))
	ct := NewCertifier()
	type inst struct {
		m    *lsap.Matrix
		cost float64
	}
	instances := make([]inst, len(sw.Sizes))
	for i, n := range sw.Sizes {
		m := genUniform(rand.New(rand.NewSource(rng.Int63())), n)
		sol, err := cpuhung.JV{}.Solve(m)
		if err == nil {
			err = ct.Certify(m, sol)
		}
		if err != nil {
			return nil, fmt.Errorf("sweep %s: reference n=%d: %w", sw.Name, n, err)
		}
		instances[i] = inst{m: m, cost: sol.Cost}
	}
	schedules := make([][]*faultinject.Schedule, len(sw.Groups))
	for g, group := range sw.Groups {
		for range sw.Schedules {
			schedules[g] = append(schedules[g], sw.Draw(rng, group.Chips))
		}
	}
	report := &SweepReport{}
	for g, group := range sw.Groups {
		for _, target := range group.Targets {
			for _, sched := range schedules[g] {
				for _, in := range instances {
					if err := report.run(sw, ct, target, sched, in.m, in.cost); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return report, nil
}

// run executes one run and classifies it. This is the one place a
// sweep judges an outcome.
func (r *SweepReport) run(sw Sweep, ct *Certifier, target Target, sched *faultinject.Schedule, m *lsap.Matrix, want float64) error {
	clone := sched.Clone()
	s, err := target(clone, sw.Retries)
	if err != nil {
		return fmt.Errorf("sweep %s: constructor: %w", sw.Name, err)
	}
	r.Runs++
	var sol *lsap.Solution
	var res *core.Result
	if h, ok := s.(*core.Solver); ok {
		//hunipulint:ignore ctxflow sweeps are uncancellable by design: every run finishes or fails on its own
		res, err = h.SolveDetailedContext(context.Background(), m.Clone())
		if res != nil {
			r.record(res)
			sol = res.Solution
		}
	} else {
		sol, err = s.Solve(m.Clone())
	}
	repro := func() string {
		return fmt.Sprintf("%s: %s n=%d schedule %q: err=%v", sw.Name, s.Name(), m.N, sched.String(), err)
	}
	var ce *faultinject.CorruptionError
	var fe *faultinject.FaultError
	switch {
	case errors.As(err, &ce):
		r.Corruptions++
		if res == nil {
			// No recovery report came back: the typed error is the
			// terminal trip's only record.
			r.Detections++
		}
		r.MaxLatency = max(r.MaxLatency, ce.Latency)
	case errors.As(err, &fe):
		r.TypedFaults++
	case err != nil:
		r.Untyped = append(r.Untyped, repro())
	default:
		if cerr := ct.Certify(m, sol); cerr != nil {
			r.Wrong = append(r.Wrong, repro()+": "+cerr.Error())
		} else if math.Abs(sol.Cost-want) > ct.tol()*(1+want) {
			r.Wrong = append(r.Wrong, repro())
		} else if clone.Fired() > 0 {
			r.Survived++
		} else {
			r.Clean++
		}
	}
	return nil
}

// record adds one HunIPU run's recovery and fabric report.
func (r *SweepReport) record(res *core.Result) {
	r.Detections += res.Recovery.GuardTrips
	r.MaxLatency = max(r.MaxLatency, res.Recovery.DetectionLatency)
	r.Rollbacks += res.Recovery.Retries
	if f := res.Fabric; f != nil {
		r.ChipsLost += len(f.Lost)
		r.Reshards += f.Reshards
		r.Quarantined += len(f.Quarantined)
	}
}
