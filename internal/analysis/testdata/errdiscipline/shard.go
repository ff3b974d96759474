//hunipulint:path hunipu/internal/fixture3

// A sharded solve fails typed: *FabricError wraps the injected fault
// that finished the fabric off, so errors.As against either type keeps
// working through every wrap on the way to the degradation ladder. A
// %v anywhere on that path silently turns "chip 2 died, 1 survivor
// below minimum" into an opaque string — the ladder then cannot tell a
// dead fabric from a typo. This fixture models the shape without
// importing the real core package (fixtures are self-contained
// single-file packages).
package fixture3

import (
	"errors"
	"fmt"
)

// FabricError mirrors core.FabricError: a typed fabric-collapse
// report with an Unwrap chain down to the finishing fault.
type FabricError struct {
	Devices   int
	Survivors int
	Lost      []int
	Err       error
}

func (e *FabricError) Error() string {
	return fmt.Sprintf("fabric of %d failed: %d survivors, lost %v: %v", e.Devices, e.Survivors, e.Lost, e.Err)
}

func (e *FabricError) Unwrap() error { return e.Err }

func collapse() error {
	return &FabricError{Devices: 4, Survivors: 1, Lost: []int{2, 3}, Err: errors.New("deviceloss at superstep 12")}
}

// SeverCollapse re-wraps a fabric failure with %v, so the caller's
// errors.As(*FabricError) stops matching and the ladder loses the
// lost-device report the error was carrying.
func SeverCollapse() error {
	if err := collapse(); err != nil {
		return fmt.Errorf("sharded solve failed: %v", err) // want "without %w"
	}
	return nil
}

// PropagateCollapse keeps the chain intact with %w; errors.As still
// finds the FabricError after any number of such wraps.
func PropagateCollapse() error {
	if err := collapse(); err != nil {
		return fmt.Errorf("sharded solve failed: %w", err)
	}
	return nil
}

// ClassifyCollapse is the downstream consumer the chain exists for:
// the degradation ladder reading which chips died before falling back.
func ClassifyCollapse(err error) ([]int, bool) {
	var fe *FabricError
	if errors.As(err, &fe) {
		return fe.Lost, true
	}
	return nil, false
}
