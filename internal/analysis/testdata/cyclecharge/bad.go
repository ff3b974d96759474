// Package fixture exercises cyclecharge violations: modeled device
// work (guard checksum contributions, probe evaluations) that can
// reach a return without a charging call.
//
//hunipulint:path hunipu/internal/poplar/fixture
package fixture

// Device mirrors the ipu cost model's charging surface.
type Device struct{ guard int64 }

func (d *Device) ChargeGuard(n int64) { d.guard += n }

// sumContribution is the modeled work primitive (the fixture twin of
// poplar's sumContribution).
func sumContribution(v float64, idx int) uint64 {
	return uint64(idx+1) * uint64(int64(v*16))
}

// InvariantProbe mirrors the poplar probe surface.
type InvariantProbe struct {
	Cost  int64
	Check func() error
}

// VerifyBlock leaks: the mismatch path returns before any charge, so
// the checksum work goes unpriced exactly when it trips.
func VerifyBlock(d *Device, data []float64, want uint64) bool {
	var sum uint64
	for i, v := range data {
		sum += sumContribution(v, i) // want "uncharged modeled work: call to sumContribution"
	}
	if sum != want {
		return false
	}
	d.ChargeGuard(int64(len(data)))
	return true
}

// blockSum performs guard work with no charge; its callers inherit
// the obligation.
func blockSum(data []float64) uint64 {
	var s uint64
	for i, v := range data {
		s += sumContribution(v, i)
	}
	return s
}

// Rebaseline leaks through blockSum: the finding lands on the call
// with the full path in the message.
func Rebaseline(d *Device, data []float64) uint64 {
	return blockSum(data) // want "call to sumContribution.*Rebaseline → blockSum"
}

// PollProbes evaluates probes without charging their cost.
func PollProbes(probes []*InvariantProbe) error {
	for _, p := range probes {
		if err := p.Check(); err != nil { // want "InvariantProbe.Check"
			return err
		}
	}
	return nil
}

// retireProbe models teardown work the checker cannot classify
// syntactically; the directive makes callers responsible for it.
//
//hunipulint:work probe teardown sweeps the armed-tile maps
func retireProbe(d *Device, n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
	_ = d
}

// DrainProbes calls the annotated primitive without charging.
func DrainProbes(d *Device, n int) {
	retireProbe(d, n) // want "work-annotated"
}
