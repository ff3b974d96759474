package hunipu

import (
	"context"
	"fmt"
	"time"

	"hunipu/internal/cpuhung"
	"hunipu/internal/gpuauction"
	"hunipu/internal/ipuauction"
	"hunipu/internal/lsap"
)

// solveBounded runs one device attempt at Bounded(ε>0) quality: each
// device routes to its ε-scaling auction port (the IPU and GPU ports
// keep their architectures' machine models), with early termination at
// the first phase whose readback the price-derived duals certify
// within ε. The certificate against the original matrix replaces the
// guard layer's output attestation on this path. prior, when non-nil,
// is already clamped feasible; its −v seeds the auction prices.
func (c *config) solveBounded(ctx context.Context, d Device, m *lsap.Matrix, prior *lsap.Potentials) (*lsap.Solution, time.Duration, Attempt) {
	att := Attempt{Device: d, Quality: c.quality}
	eps := c.quality.Epsilon()
	var warm []float64
	if prior != nil {
		warm = make([]float64, m.N)
		for j, v := range prior.V {
			warm[j] = -v
		}
		att.WarmStarted = true
	}
	var (
		sol     *lsap.Solution
		modeled time.Duration
		err     error
	)
	switch d {
	case DeviceIPU:
		o := ipuauction.Options{
			Config:        c.ipuOpts.Config,
			MaxSupersteps: c.ipuOpts.MaxSupersteps,
			Epsilon:       eps,
			WarmPrices:    warm,
		}
		inj := c.injectorFor(d)
		if inj != nil {
			o.Fault = inj
		}
		if c.retries > 0 {
			o.MaxRetries = c.retries
		}
		var s *ipuauction.Solver
		s, err = ipuauction.New(o)
		if err == nil {
			before := firedCount(inj)
			var r *ipuauction.Result
			r, err = s.SolveDetailedContext(ctx, m)
			att.Faults = firedCount(inj) - before
			if err == nil {
				sol, modeled = r.Solution, r.Modeled
				att.Retries = r.Recovery.Retries
				att.CheckpointsSaved = r.Recovery.CheckpointsSaved
				att.CheckpointsRestored = r.Recovery.CheckpointsRestored
			}
		}
	case DeviceGPU:
		var s *gpuauction.Solver
		s, err = gpuauction.New(gpuauction.Options{Epsilon: eps, WarmPrices: warm})
		if err == nil {
			var r *gpuauction.Result
			r, err = s.SolveDetailedContext(ctx, m)
			if err == nil {
				sol, modeled = r.Solution, r.Modeled
			}
		}
	case DeviceCPU:
		sol, err = (cpuhung.Auction{Epsilon: eps, WarmPrices: warm}).SolveContext(ctx, m)
	default:
		err = fmt.Errorf("hunipu: unknown device %v", d)
	}
	if err != nil {
		att.Err = err
		return nil, 0, att
	}
	att.Gap = sol.Gap
	return sol, modeled, att
}
