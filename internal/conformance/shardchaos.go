package conformance

import (
	"context"
	"fmt"
	"math/rand"

	"hunipu/internal/core"
	"hunipu/internal/cpuhung"
	"hunipu/internal/faultinject"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// ShardChaosConfig parameterises a fabric chaos sweep over multi-chip
// HunIPU: the counterpart of ChaosConfig, with device-loss and
// link-loss schedules drawn per fabric size so chips die and links flap
// on every run shape.
type ShardChaosConfig struct {
	// Schedules is how many random shard schedules to draw per fabric.
	Schedules int
	// Fabrics are the fabric sizes K swept.
	Fabrics []int
	// Sizes are the instance sizes each schedule is run against.
	Sizes []int
	// Retries is the rollback budget per solve.
	Retries int
	// Seed drives schedules and instances, reproducibly.
	Seed int64
	// Tol as in Config.
	Tol float64
}

// DefaultShardChaosConfig meets the acceptance floor: ≥50 device-loss /
// link-loss schedules per fabric size in {2, 4}.
func DefaultShardChaosConfig() ShardChaosConfig {
	return ShardChaosConfig{Schedules: 50, Fabrics: []int{2, 4}, Sizes: []int{8, 13}, Retries: 3, Seed: 1}
}

// ShardChaosReport aggregates a fabric sweep. On top of the outcome
// counts it tracks whether the sweep actually exercised the fabric
// machinery: chips lost, re-shardings survived, rollbacks absorbed.
type ShardChaosReport struct {
	Runs       int
	Clean      int
	Survived   int
	TypedError int
	// DevicesLost / Reshards / Rollbacks sum the fabric events observed
	// across all runs, failed ones included; Rollbacks counts the
	// checkpoint restores that absorbed transient faults.
	DevicesLost int
	Reshards    int
	Rollbacks   int
	// Violations carry a reproducer: fabric, schedule spec, size.
	Violations []string
}

// RunShardChaos sweeps random device-loss and link-loss schedules over
// multi-chip solvers and enforces the same invariant as RunChaos: every
// run ends in a certified optimum or a typed error — a dying chip or a
// flapping link must never yield a silently wrong assignment.
func RunShardChaos(cfg ShardChaosConfig) (*ShardChaosReport, error) {
	if cfg.Schedules <= 0 {
		cfg = DefaultShardChaosConfig()
	}
	tol := cfg.Tol
	if tol == 0 {
		tol = 1e-9
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ct := NewCertifier()
	ct.Tol = tol
	ref := cpuhung.JV{}
	report := &ShardChaosReport{}

	type inst struct {
		m    *lsap.Matrix
		cost float64
	}
	var instances []inst
	for _, n := range cfg.Sizes {
		m := genUniform(rand.New(rand.NewSource(rng.Int63())), n)
		sol, err := ref.Solve(m)
		if err != nil {
			return nil, fmt.Errorf("shardchaos: reference solve n=%d: %w", n, err)
		}
		instances = append(instances, inst{m: m, cost: sol.Cost})
	}

	for _, k := range cfg.Fabrics {
		for i := 0; i < cfg.Schedules; i++ {
			sched := faultinject.RandomShardSchedule(rng, k)
			for _, in := range instances {
				clone := sched.Clone()
				// Guarded at the sharded default: loud loss schedules never
				// trip the guard, but the sweep should exercise the same
				// configuration production fabrics run.
				s, err := fabricIPU(k, core.Options{
					Fault: clone, MaxRetries: cfg.Retries, Guard: poplar.GuardChecksums,
				})
				if err != nil {
					return nil, fmt.Errorf("shardchaos: K=%d constructor: %w", k, err)
				}
				report.Runs++
				//hunipulint:ignore ctxflow chaos sweeps are uncancellable by design, like RunChaos's Solve calls
				res, err := s.SolveDetailedContext(context.Background(), in.m.Clone())
				var sol *lsap.Solution
				if res != nil {
					report.DevicesLost += len(res.Fabric.Lost)
					report.Reshards += res.Fabric.Reshards
					report.Rollbacks += res.Recovery.Retries
					sol = res.Solution
				}
				switch classifyChaos(ct, in.m, in.cost, tol, sol, err, clone.Fired()) {
				case ChaosClean:
					report.Clean++
				case ChaosSurvived:
					report.Survived++
				case ChaosTypedError:
					report.TypedError++
				default:
					report.Violations = append(report.Violations, fmt.Sprintf(
						"K=%d n=%d schedule %q: err=%v", k, in.m.N, sched.String(), err))
				}
			}
		}
	}
	return report, nil
}
