package serve

import (
	"sync"
	"time"

	"hunipu"
)

// costModel predicts the wall time of a solve from its size so
// admission control can shed requests whose deadline the solve cannot
// meet. The model is deliberately simple: per (device, quality tier),
// an EWMA of observed wall time normalised by n² (the per-device work
// of one parallel Hungarian phase sweep; the outer-loop count varies
// per instance, which the EWMA absorbs). n is the padded size
// max(rows, cols) that every device actually solves. It starts from a configured
// optimistic seed so a cold server admits rather than sheds, and
// converges onto the deployment's real hardware within a few solves.
//
// Bounded (ε-approximate) solves get their own coefficient per device:
// they terminate early, so pricing them off the exact coefficient
// would make the brownout controller think degradation buys nothing.
// Before the first bounded observation the model guesses exact×¼ — an
// optimistic discount, in keeping with admit-rather-than-shed.
type costModel struct {
	mu    sync.Mutex
	coeff map[modelKey]float64 // ns per matrix cell
	seed  float64              // initial ns per cell
}

// modelKey is one (device, quality-tier) coefficient slot. All bounded
// ε share a slot: early-termination cost depends on ε only weakly
// compared to device and size, and splitting by ε would leave most
// slots forever cold.
type modelKey struct {
	dev     hunipu.Device
	bounded bool
}

// ewmaAlpha is the weight of the newest observation.
const ewmaAlpha = 0.3

// boundedDiscount is the optimistic guess for a bounded solve's cost
// relative to an exact solve on the same device, used until the first
// bounded observation lands.
const boundedDiscount = 0.25

func newCostModel(seedPerCell time.Duration) *costModel {
	return &costModel{
		coeff: make(map[modelKey]float64),
		seed:  float64(seedPerCell),
	}
}

// Estimate models the wall time of an n×n solve on device d at the
// given quality tier.
func (m *costModel) Estimate(d hunipu.Device, n int, bounded bool) time.Duration {
	m.mu.Lock()
	c, ok := m.coeff[modelKey{d, bounded}]
	if !ok && bounded {
		if exact, has := m.coeff[modelKey{d, false}]; has {
			c, ok = exact*boundedDiscount, true
		}
	}
	m.mu.Unlock()
	if !ok {
		c = m.seed
		if bounded {
			c *= boundedDiscount
		}
	}
	return time.Duration(c * float64(n) * float64(n))
}

// Observe folds one served solve into its tier's coefficient.
func (m *costModel) Observe(d hunipu.Device, n int, wall time.Duration, bounded bool) {
	if n == 0 || wall <= 0 {
		return
	}
	obs := float64(wall) / (float64(n) * float64(n))
	m.mu.Lock()
	defer m.mu.Unlock()
	k := modelKey{d, bounded}
	if c, ok := m.coeff[k]; ok {
		m.coeff[k] = (1-ewmaAlpha)*c + ewmaAlpha*obs
	} else {
		m.coeff[k] = obs
	}
}
