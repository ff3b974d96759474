//hunipulint:path hunipu/internal/fixture

package fixture

import (
	"errors"
	"fmt"
	"strings"
)

var errBoom = errors.New("boom")

func work() error { return errBoom }

// Handle matches with errors.Is, wraps with %w, and nil-checks freely.
func Handle() error {
	err := work()
	if errors.Is(err, errBoom) {
		return fmt.Errorf("solve failed: %w", err)
	}
	if err != nil {
		return err
	}
	return nil
}

// Render uses strings.Builder, whose error results are always nil.
func Render() string {
	var b strings.Builder
	b.WriteByte('[')
	b.WriteByte(']')
	return b.String()
}

// FabricError mirrors the fabric fault class: a concrete typed error.
type FabricError struct{ Device int }

func (e *FabricError) Error() string { return "fabric fault" }

// SameFault matches fault classes with errors.As and field
// comparison; nil checks on typed errors stay allowed.
func SameFault(err error, dev int) bool {
	var fe *FabricError
	if !errors.As(err, &fe) || fe == nil {
		return false
	}
	return fe.Device == dev
}
