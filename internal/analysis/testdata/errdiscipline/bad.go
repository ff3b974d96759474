//hunipulint:path hunipu/internal/fixture

package fixture

import (
	"errors"
	"fmt"
)

var errBoom = errors.New("boom")

func work() error { return errBoom }

// Compare matches a sentinel with ==, which breaks once anyone wraps.
func Compare() bool {
	err := work()
	return err == errBoom // want "error compared with =="
}

// Sever formats the cause with %v, cutting the errors.Is chain.
func Sever() error {
	err := work()
	return fmt.Errorf("solve failed: %v", err) // want "without %w"
}

// SeverString is just as broken with %s: the verb changes nothing
// about the severed chain.
func SeverString() error {
	err := work()
	return fmt.Errorf("solve failed: %s", err) // want "without %w"
}

// FabricError mirrors the fabric fault class: a concrete typed error.
type FabricError struct{ Device int }

func (e *FabricError) Error() string { return "fabric fault" }

// SameFault compares typed error values with ==: pointer identity,
// so two allocations of the same fault class never match.
func SameFault(a, b *FabricError) bool {
	return a == b // want "typed error value compared with =="
}

// Drop discards the only return value, an error.
func Drop() {
	work() // want "error that is discarded"
}
