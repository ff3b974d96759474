// Package fixture exercises the clean cyclecharge shapes: work is
// charged directly, accrued into a pending ledger, discharged by a
// charges-annotated helper, or charged before the work evaluates.
//
//hunipulint:path hunipu/internal/poplar/fixture
package fixture

// Device mirrors the ipu cost model's charging surface.
type Device struct{ guard int64 }

func (d *Device) ChargeGuard(n int64) { d.guard += n }

// sumContribution is the modeled work primitive.
func sumContribution(v float64, idx int) uint64 {
	return uint64(idx+1) * uint64(int64(v*16))
}

// InvariantProbe mirrors the poplar probe surface.
type InvariantProbe struct {
	Cost  int64
	Check func() error
}

// VerifyBlock charges on every path, including the mismatch return.
func VerifyBlock(d *Device, data []float64, want uint64) bool {
	var sum uint64
	for i, v := range data {
		sum += sumContribution(v, i)
	}
	d.ChargeGuard(int64(len(data)))
	return sum == want
}

// ledger batches guard charges the way the fabric guard does.
type ledger struct{ pending map[int]int64 }

// Accrue discharges its work by accruing into the pending counter,
// which a later flush converts into ChargeGuard calls.
func (l *ledger) Accrue(dev int, data []float64) uint64 {
	var sum uint64
	for i, v := range data {
		sum += sumContribution(v, i)
	}
	l.pending[dev] += 2
	return sum
}

// flushLater hands the sum to the fabric ledger, which prices it at
// the next superstep boundary.
//
//hunipulint:charges accounted at the next superstep flush
func flushLater(d *Device, sum uint64) { _ = sum; _ = d }

// Checksum's work is discharged by the annotated flush helper.
func Checksum(d *Device, data []float64) uint64 {
	var sum uint64
	for i, v := range data {
		sum += sumContribution(v, i)
	}
	flushLater(d, sum)
	return sum
}

// Validate charges each probe's cost before evaluating it (charge
// placement is order-insensitive: any charge on the path counts).
func Validate(d *Device, probes []*InvariantProbe) error {
	for _, p := range probes {
		d.ChargeGuard(p.Cost)
		if err := p.Check(); err != nil {
			return err
		}
	}
	return nil
}

// chargedSum both works and charges; callers need not re-charge.
func chargedSum(d *Device, data []float64) uint64 {
	var s uint64
	for i, v := range data {
		s += sumContribution(v, i)
	}
	d.ChargeGuard(int64(len(data)))
	return s
}

// Retransmit composes a charging helper: the callee charges on all
// its paths, so the call site is a charge barrier.
func Retransmit(d *Device, data []float64) uint64 {
	return chargedSum(d, data)
}
