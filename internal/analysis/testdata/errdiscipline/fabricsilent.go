//hunipulint:path hunipu/internal/fixture4

// The fabric guard's quarantine path layers both typed errors: a
// *CorruptionError attributed to one chip (a per-chip checksum
// mismatch) is wrapped in a *FabricError once
// quarantining drops the fabric below its minimum. The degradation
// ladder needs errors.As to reach BOTH types through every wrap — the
// FabricError to learn which chips were quarantined, the inner
// CorruptionError to tell Byzantine corruption from a plain device
// loss. A %v anywhere on that path severs the chain and collapses a
// fully attributed silent-corruption report into an opaque string.
// This fixture models the shape without importing the real core or
// faultinject packages (fixtures are self-contained single-file
// packages).
package fixture4

import (
	"errors"
	"fmt"
)

// CorruptionError mirrors faultinject.CorruptionError with the fabric
// attribution field: Device is the chip the guard condemned (−1 when
// the detection could not be attributed).
type CorruptionError struct {
	Guard  string
	Device int
	Err    error
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("silent corruption: %s on device %d: %v", e.Guard, e.Device, e.Err)
}

func (e *CorruptionError) Unwrap() error { return e.Err }

// FabricError mirrors core.FabricError with the quarantine report:
// the chips Byzantine-classified and removed before the fabric fell
// below its minimum.
type FabricError struct {
	Devices     int
	Survivors   int
	Quarantined []int
	Err         error
}

func (e *FabricError) Error() string {
	return fmt.Sprintf("fabric of %d failed: %d survivors, quarantined %v: %v",
		e.Devices, e.Survivors, e.Quarantined, e.Err)
}

func (e *FabricError) Unwrap() error { return e.Err }

func quarantineCollapse() error {
	ce := &CorruptionError{
		Guard:  "fabric:checksum:dev1",
		Device: 1,
		Err:    errors.New("retransmit budget exhausted"),
	}
	return &FabricError{Devices: 2, Survivors: 1, Quarantined: []int{1}, Err: ce}
}

// SeverQuarantine re-wraps the quarantine failure with %v, so the
// caller's errors.As stops matching both *FabricError and the inner
// *CorruptionError — the ladder loses the quarantine report and the
// corruption attribution in one stroke.
func SeverQuarantine() error {
	if err := quarantineCollapse(); err != nil {
		return fmt.Errorf("sharded solve failed: %v", err) // want "without %w"
	}
	return nil
}

// PropagateQuarantine keeps the chain intact with %w; errors.As still
// reaches both layers after any number of such wraps.
func PropagateQuarantine() error {
	if err := quarantineCollapse(); err != nil {
		return fmt.Errorf("sharded solve failed: %w", err)
	}
	return nil
}

// ClassifyQuarantine is the downstream consumer the chain exists for:
// the ladder reading which chips were quarantined and which guard
// condemned them before deciding how to degrade.
func ClassifyQuarantine(err error) ([]int, string, bool) {
	var fe *FabricError
	if !errors.As(err, &fe) {
		return nil, "", false
	}
	var ce *CorruptionError
	if errors.As(err, &ce) {
		return fe.Quarantined, ce.Guard, true
	}
	return fe.Quarantined, "", true
}
