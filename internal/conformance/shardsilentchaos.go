package conformance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/faultinject"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// ShardSilentChaosConfig parameterises a fabric-wide silent-corruption
// sweep: RandomSilentSchedule drawn per fabric size, so link flips
// (linkflip), chip-memory flips (shardflip), and the single-device
// silent classes land on state held on each of the K chips — half the
// schedules also carrying an announced device-loss or link-loss rule,
// the mixed loss+corruption regime the guard has to survive.
type ShardSilentChaosConfig struct {
	// Schedules is how many random silent schedules to draw per fabric.
	Schedules int
	// Fabrics are the fabric sizes K swept.
	Fabrics []int
	// Sizes are the instance sizes each schedule is run against.
	Sizes []int
	// Retries is the rollback budget per solve.
	Retries int
	// Guard is the fabric policy armed on every run.
	Guard poplar.GuardPolicy
	// Seed drives schedules and instances, reproducibly.
	Seed int64
	// Tol as in Config.
	Tol float64
}

// DefaultShardSilentChaosConfig meets the acceptance floor: ≥50 mixed
// loss+corruption schedules per fabric size in {2, 4}, guarded at
// GuardChecksums (the sharded default; the suite re-runs the sweep at
// every active policy).
func DefaultShardSilentChaosConfig() ShardSilentChaosConfig {
	return ShardSilentChaosConfig{
		Schedules: 50, Fabrics: []int{2, 4}, Sizes: []int{8, 13}, Retries: 3,
		Guard: poplar.GuardChecksums, Seed: 3,
	}
}

// ShardSilentChaosReport aggregates a fabric silent sweep. The headline
// invariant (any guard above Off): Wrong and Untyped stay empty —
// every run ends in a certified optimum or a typed error. With
// GuardOff, Wrong is the point of the control: it lists runs where a
// silently corrupted answer escaped the fabric and only test-side
// certification caught it.
type ShardSilentChaosReport struct {
	Runs int
	// Clean: no fault fired, certified optimal.
	Clean int
	// Survived: faults fired, the guard absorbed them (rollback,
	// quarantine), result certified optimal.
	Survived int
	// Corruptions: runs that failed with a typed *CorruptionError
	// (directly or wrapped in a *core.FabricError).
	Corruptions int
	// TypedFaults: runs that failed with a typed *FaultError (announced
	// loss rules finishing the fabric off).
	TypedFaults int
	// Detections counts guard trips summed across all runs — including
	// the ones recovery absorbed — and MaxLatency is the worst observed
	// injection-to-detection distance in supersteps.
	Detections int
	MaxLatency int64
	// Quarantined / DevicesLost / Reshards / Rollbacks sum the fabric
	// events observed across all runs, failed included.
	Quarantined int
	DevicesLost int
	Reshards    int
	Rollbacks   int
	// Wrong lists reproducers for runs that returned an uncertified or
	// non-optimal answer with no error.
	Wrong []string
	// Untyped lists reproducers for runs that failed untyped.
	Untyped []string
}

// RunShardSilentChaos sweeps random silent-corruption schedules (mixed
// with announced losses) over multi-chip HunIPU under cfg.Guard and
// enforces the certified-optimal-or-typed-error invariant for every
// active policy. Run it at GuardOff to measure the escape instead: the
// unguarded fabric keeps the flips, and Wrong fills with the answers
// that got away.
func RunShardSilentChaos(cfg ShardSilentChaosConfig) (*ShardSilentChaosReport, error) {
	if cfg.Schedules <= 0 {
		cfg = DefaultShardSilentChaosConfig()
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ct := NewCertifier()
	ct.Tol = tol
	ref := cpuhung.JV{}
	report := &ShardSilentChaosReport{}

	type inst struct {
		m    *lsap.Matrix
		cost float64
	}
	var instances []inst
	for _, n := range cfg.Sizes {
		m := genUniform(rand.New(rand.NewSource(rng.Int63())), n)
		sol, err := ref.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("shardsilentchaos: reference solve n=%d: %w", n, err)
		}
		instances = append(instances, inst{m: m, cost: sol.Cost})
	}

	for _, k := range cfg.Fabrics {
		for i := 0; i < cfg.Schedules; i++ {
			sched := faultinject.RandomSilentSchedule(rng, k)
			for _, in := range instances {
				clone := sched.Clone()
				s, err := fabricIPU(k, core.Options{
					Fault: clone, MaxRetries: cfg.Retries, Guard: cfg.Guard, MaxSupersteps: 20000,
				})
				if err != nil {
					return nil, fmt.Errorf("shardsilentchaos: K=%d constructor: %w", k, err)
				}
				report.Runs++
				//hunipulint:ignore ctxflow chaos sweeps are uncancellable by design, like RunChaos's Solve calls
				res, err := s.SolveDetailedContext(context.Background(), in.m.Clone())
				if res != nil {
					report.Detections += res.Recovery.GuardTrips
					report.Quarantined += len(res.Fabric.Quarantined)
					report.DevicesLost += len(res.Fabric.Lost)
					report.Reshards += res.Fabric.Reshards
					report.Rollbacks += res.Recovery.Retries
					if res.Recovery.DetectionLatency > report.MaxLatency {
						report.MaxLatency = res.Recovery.DetectionLatency
					}
				}
				repro := func() string {
					return fmt.Sprintf("K=%d n=%d guard=%v schedule %q: err=%v",
						k, in.m.N, cfg.Guard, sched.String(), err)
				}
				if err != nil {
					var ce *faultinject.CorruptionError
					var fe *faultinject.FaultError
					switch {
					case errors.As(err, &ce):
						report.Corruptions++
						if ce.Latency > report.MaxLatency {
							report.MaxLatency = ce.Latency
						}
					case errors.As(err, &fe):
						report.TypedFaults++
					default:
						report.Untyped = append(report.Untyped, repro())
					}
					continue
				}
				sol := res.Solution
				if cerr := ct.Certify(in.m, sol); cerr != nil {
					report.Wrong = append(report.Wrong, repro()+": "+cerr.Error())
					continue
				}
				if diff := sol.Cost - in.cost; diff > tol*(1+in.cost) || diff < -tol*(1+in.cost) {
					report.Wrong = append(report.Wrong, repro())
					continue
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
