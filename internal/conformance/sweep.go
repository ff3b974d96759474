package conformance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"hunipu"
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
// fault schedules against solvers and asks "does every run end in an
// answer its quality tier certifies, or in a typed error?" — a fault
// must never silently corrupt a result. It is the one chaos driver for
// every execution model and tier; the constructors below differ only
// in targets, schedule generator, tier, sizes and seed.
type Sweep struct {
	// Name labels the sweep (and its guard policy or tier) in
	// reproducers.
	Name string
	// Groups lists the solvers swept. The targets of one group run the
	// same drawn schedules.
	Groups []Group
	// Draw draws one schedule for a group.
	Draw func(rng *rand.Rand, g Group) *faultinject.Schedule
	// Schedules is how many schedules each group draws.
	Schedules int
	// Sizes are the instance sizes every schedule runs against.
	Sizes []int
	// Retries is the recovery budget handed to each solver.
	Retries int
	// Seed draws the instances first, then each group's schedules in
	// group order, so the same seed replays the same sweep.
	Seed int64
	// Quality is the tier every run is judged at (see judge). A bounded
	// sweep runs each instance twice: cold, and as a drifted successor
	// warm-started from the instance's optimal duals, as a keyed
	// stream's next frame is.
	Quality hunipu.Quality
}

// A Group is a list of targets that share one list of drawn schedules.
type Group struct {
	// Chips is the fabric size the group's schedules are drawn for.
	Chips int
	// Phases are the globs announced schedules draw phase filters
	// from: the group's own compute sets, kernels and transfers, so
	// every filter can reach the program it runs on. "" is no filter.
	Phases  []string
	Targets []Target
}

// A Target builds the solver for one run, wired to the run's private
// injector and the sweep's retry budget.
type Target func(inj faultinject.Injector, retries int) (lsap.Solver, error)

// Each target's phase globs, a third of them unfiltered. HunIPU's keep
// the order every HunIPU replay has drawn them in.
var (
	hunIPUPhases  = []string{"", "", "s1_*", "s4_*", "s6_*", "compress", "copy:*", "host:*", "*"}
	fastHAPhases  = []string{"", "", "row_*", "col_reduce", "*_partial", "*_final", "prime_cover", "augment_path", "*"}
	auctionPhases = []string{"", "", "auc_bid", "auc_resolve", "auc_*eps*", "auc_reset_*/*", "host:*", "*"}
)

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

// fastHA targets FastHA, padded to its power-of-two sizes.
func fastHA(inj faultinject.Injector, _ int) (lsap.Solver, error) {
	s, err := fastha.New(fastha.Options{Fault: inj})
	if err != nil {
		return nil, err
	}
	return paddedFastHA{s}, nil
}

// ipuAuction targets the IPU auction's exact schedule.
func ipuAuction(inj faultinject.Injector, retries int) (lsap.Solver, error) {
	return ipuauction.New(ipuauction.Options{Config: smallIPU(), Fault: inj, MaxRetries: retries})
}

// publicIPU solves on the simulated IPU through the public
// hunipu.SolveContext at one quality tier, so a bounded sweep runs what
// a caller runs: validation, warm-start clamping, the auction port (or,
// at Bounded(0), HunIPU) and the certificate.
type publicIPU struct {
	q       hunipu.Quality
	inj     faultinject.Injector
	retries int
}

func (p publicIPU) Name() string { return "IPU@" + p.q.String() }

func (p publicIPU) Solve(m *lsap.Matrix) (*lsap.Solution, error) { return p.solve(m, nil) }

func (p publicIPU) solve(m *lsap.Matrix, prior *lsap.Potentials) (*lsap.Solution, error) {
	opts := []hunipu.Option{
		hunipu.OnIPU(),
		hunipu.WithIPUOptions(core.Options{Config: smallIPU(), MaxSupersteps: 20000}),
		hunipu.WithQuality(p.q),
		hunipu.WithInjector(hunipu.DeviceIPU, p.inj),
		hunipu.WithRecovery(p.retries),
	}
	if prior != nil {
		opts = append(opts, hunipu.WithWarmStart(prior.U, prior.V))
	}
	//hunipulint:ignore ctxflow sweeps are uncancellable by design: every run finishes or fails on its own
	res, err := hunipu.SolveContext(context.Background(), rowsOf(m), opts...)
	if err != nil {
		return nil, err
	}
	sol := &lsap.Solution{Assignment: res.Assignment, Cost: res.Cost, Gap: res.Gap}
	if res.Duals != nil {
		sol.Potentials = &lsap.Potentials{U: res.Duals.U, V: res.Duals.V}
	}
	return sol, nil
}

// drawAnnounced draws announced faults over the group's own phases.
func drawAnnounced(rng *rand.Rand, g Group) *faultinject.Schedule {
	return faultinject.RandomSchedule(rng, g.Phases)
}

// drawSilent adapts the variadic RandomSilentSchedule to Sweep.Draw;
// one chip draws exactly the single-chip schedule.
func drawSilent(rng *rand.Rand, g Group) *faultinject.Schedule {
	return faultinject.RandomSilentSchedule(rng, g.Chips)
}

// drawShard adapts RandomShardSchedule to Sweep.Draw.
func drawShard(rng *rand.Rand, g Group) *faultinject.Schedule {
	return faultinject.RandomShardSchedule(rng, g.Chips)
}

// AnnouncedSweep draws announced faults (RandomSchedule) against every
// solver that accepts an injector: 60 schedules per solver, enough to
// cover every fault class, trigger shape and phase filter, each from
// the solver's own phases. The CPU baselines run natively (nothing to
// inject) and the GPU auction has no injection hooks, so they are
// absent by design.
func AnnouncedSweep() Sweep {
	hun := append(hunIPUVariants(core.Options{}), hunIPU(2, core.Options{}), hunIPU(4, core.Options{}))
	return Sweep{
		Name: "announced",
		Groups: []Group{
			{Chips: 1, Phases: hunIPUPhases, Targets: hun},
			{Chips: 1, Phases: fastHAPhases, Targets: []Target{fastHA}},
			{Chips: 1, Phases: auctionPhases, Targets: []Target{ipuAuction}},
		},
		Draw:      drawAnnounced,
		Schedules: 60, Sizes: []int{8, 13}, Retries: 3, Seed: 1,
	}
}

// BoundedSweep draws announced faults against the public solve path on
// the simulated IPU at Bounded(eps), cold and warm. HunIPU serves
// Bounded(0), which re-proves the exact contract through the quality
// knob; above 0 the IPU auction serves, and the draws follow.
func BoundedSweep(eps float64) Sweep {
	q := hunipu.Bounded(eps)
	phases := auctionPhases
	if eps == 0 {
		phases = hunIPUPhases
	}
	target := func(inj faultinject.Injector, retries int) (lsap.Solver, error) {
		return publicIPU{q: q, inj: inj, retries: retries}, nil
	}
	return Sweep{
		Name:      "bounded@" + fmt.Sprint(eps),
		Groups:    []Group{{Chips: 1, Phases: phases, Targets: []Target{target}}},
		Draw:      drawAnnounced,
		Quality:   q,
		Schedules: 50, Sizes: []int{10}, Retries: 3, Seed: 2,
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
		Draw:      drawShard,
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
	// Clean: no fault fired, answer certified at the sweep's tier.
	Clean int
	// Survived: faults fired and recovery absorbed them, answer
	// certified at the sweep's tier.
	Survived int
	// TypedFaults: runs that failed with a typed *faultinject.FaultError.
	TypedFaults int
	// GapRefusals: runs that withheld an answer they could not certify
	// within ε, with a typed *lsap.GapError.
	GapRefusals int
	// MaxGap is the worst gap a certified run reported, MaxTrueGap the
	// worst against the reference optimum. Certificates may be loose,
	// never optimistic: MaxTrueGap ≤ MaxGap up to tolerance.
	MaxGap     float64
	MaxTrueGap float64
	// Targets tallies each target's runs, by solver name.
	Targets map[string]TargetTally
	// Corruptions: runs that failed with a typed
	// *faultinject.CorruptionError, directly or wrapped in a
	// *core.FabricError.
	Corruptions int
	// Detections counts guard trips, each once: the trips in a HunIPU
	// run's recovery report, recovered and terminal, failed runs
	// included. MaxLatency is the worst injection-to-detection distance
	// in supersteps.
	Detections int
	MaxLatency int64
	// Rollbacks, ChipsLost, Reshards and Quarantined sum what HunIPU's
	// recovery did on every HunIPU run, failed runs included: checkpoint
	// restores, chips dropped, moves onto survivor programs, and chips
	// dropped because the guard kept catching them.
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

// A TargetTally counts one target's runs and the runs in which at least
// one fault fired: Fired/Runs is the share of its schedules that reached
// its program.
type TargetTally struct {
	Runs, Fired int
}

// Run executes the sweep: every target runs each of its group's
// schedules against every frame, on a private clone of the schedule
// (fire counters are per-run state; the spec is the shared plan).
func (sw Sweep) Run() (*SweepReport, error) {
	rng := rand.New(rand.NewSource(sw.Seed))
	ct := NewCertifier()
	var frames []frame
	for _, n := range sw.Sizes {
		src := rand.New(rand.NewSource(rng.Int63()))
		f, err := newFrame(ct, genUniform(src, n), nil)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: reference n=%d: %w", sw.Name, n, err)
		}
		frames = append(frames, f)
		if sw.Quality.IsBounded() {
			next, err := newFrame(ct, drift(src, f.m), f.duals)
			if err != nil {
				return nil, fmt.Errorf("sweep %s: reference n=%d successor: %w", sw.Name, n, err)
			}
			frames = append(frames, next)
		}
	}
	schedules := make([][]*faultinject.Schedule, len(sw.Groups))
	for g, group := range sw.Groups {
		for range sw.Schedules {
			schedules[g] = append(schedules[g], sw.Draw(rng, group))
		}
	}
	report := &SweepReport{Targets: map[string]TargetTally{}}
	for g, group := range sw.Groups {
		for _, target := range group.Targets {
			for _, sched := range schedules[g] {
				for _, f := range frames {
					if err := report.run(sw, ct, target, sched, f); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return report, nil
}

// A frame is one instance a sweep solves: its independent JV optimum
// and duals, and, for a warm successor, the predecessor's duals it
// starts from.
type frame struct {
	m     *lsap.Matrix
	cost  float64
	duals *lsap.Potentials
	prior *lsap.Potentials
}

// newFrame solves m with the certified JV reference.
func newFrame(ct *Certifier, m *lsap.Matrix, prior *lsap.Potentials) (frame, error) {
	sol, err := cpuhung.JV{}.Solve(m)
	if err == nil {
		err = ct.Certify(m, sol)
	}
	if err != nil {
		return frame{}, err
	}
	return frame{m: m, cost: sol.Cost, duals: sol.Potentials, prior: prior}, nil
}

// drift returns m's successor frame: a copy with about 2% of its
// entries redrawn as genUniform draws them.
func drift(rng *rand.Rand, m *lsap.Matrix) *lsap.Matrix {
	next := m.Clone()
	for k := max(1, len(next.Data)/50); k > 0; k-- {
		next.Data[rng.Intn(len(next.Data))] = float64(1 + rng.Intn(10*m.N))
	}
	return next
}

// run executes one run and classifies it. This is the one place a
// sweep judges an outcome.
func (r *SweepReport) run(sw Sweep, ct *Certifier, target Target, sched *faultinject.Schedule, f frame) error {
	clone := sched.Clone()
	s, err := target(clone, sw.Retries)
	if err != nil {
		return fmt.Errorf("sweep %s: constructor: %w", sw.Name, err)
	}
	r.Runs++
	m := f.m
	var sol *lsap.Solution
	var res *core.Result
	switch h := s.(type) {
	case *core.Solver:
		//hunipulint:ignore ctxflow sweeps are uncancellable by design: every run finishes or fails on its own
		res, err = h.SolveDetailedContext(context.Background(), m.Clone())
		if res != nil {
			r.record(res)
			sol = res.Solution
		}
	case publicIPU:
		sol, err = h.solve(m.Clone(), f.prior)
	default:
		sol, err = s.Solve(m.Clone())
	}
	fired := clone.Fired() > 0
	t := r.Targets[s.Name()]
	t.Runs++
	if fired {
		t.Fired++
	}
	r.Targets[s.Name()] = t
	repro := func() string {
		return fmt.Sprintf("%s: %s n=%d warm=%t schedule %q: err=%v", sw.Name, s.Name(), m.N, f.prior != nil, sched.String(), err)
	}
	var ce *faultinject.CorruptionError
	var fe *faultinject.FaultError
	var ge *lsap.GapError
	switch {
	case errors.As(err, &ce):
		r.Corruptions++
		r.MaxLatency = max(r.MaxLatency, ce.Latency)
	case errors.As(err, &fe):
		r.TypedFaults++
	case errors.As(err, &ge):
		r.GapRefusals++
	case err != nil:
		r.Untyped = append(r.Untyped, repro())
	default:
		if why := r.judge(sw.Quality, ct.tol(), f, sol); why != "" {
			r.Wrong = append(r.Wrong, repro()+": "+why)
		} else if fired {
			r.Survived++
		} else {
			r.Clean++
		}
	}
	return nil
}

// judge holds one answer to the sweep's tier and returns the first
// violation, or "": a perfect matching whose reported cost is its
// cost, within the tier's ε (0 for Exact) of the reference optimum,
// whose certificate, if it has one, attests the gap it reports, and
// which at Bounded(ε) reports a gap within ε.
func (r *SweepReport) judge(q hunipu.Quality, tol float64, f frame, sol *lsap.Solution) string {
	m, eps := f.m, q.Epsilon()
	if err := sol.Assignment.Validate(m.N); err != nil {
		return err.Error()
	}
	if cost := sol.Assignment.Cost(m); math.Abs(cost-sol.Cost) > tol*(1+math.Abs(f.cost)) {
		return fmt.Sprintf("reported cost %g, assignment costs %g", sol.Cost, cost)
	}
	g := lsap.NormalizedGap(sol.Cost, f.cost)
	if g > eps+tol {
		return fmt.Sprintf("cost %g is %g above the optimum %g, ε=%g", sol.Cost, g, f.cost, eps)
	}
	if q.IsBounded() && sol.Gap > eps+tol {
		return fmt.Sprintf("certified gap %g exceeds ε=%g", sol.Gap, eps)
	}
	if sol.Potentials != nil {
		if err := lsap.VerifyOptimalWithBound(m, sol.Assignment, *sol.Potentials, sol.Gap+tol); err != nil {
			return "certificate rejected: " + err.Error()
		}
	}
	r.MaxGap = max(r.MaxGap, sol.Gap)
	r.MaxTrueGap = max(r.MaxTrueGap, g)
	return ""
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

// rowsOf converts a matrix to the public representation.
func rowsOf(m *lsap.Matrix) [][]float64 {
	out := make([][]float64, m.N)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}
