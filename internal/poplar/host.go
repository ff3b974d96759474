package poplar

import "fmt"

// HostWrite copies host values into the tensor, like a Poplar host
// stream. It is a host-side transfer and is not charged to the BSP
// clock; solvers reset the device clock after loading inputs so that
// timings measure the solve, matching the paper's methodology.
func (t *Tensor) HostWrite(vals []float64) {
	if len(vals) != len(t.data) {
		panic(fmt.Sprintf("poplar: HostWrite %d values into %q of %d elements",
			len(vals), t.Name, len(t.data)))
	}
	copy(t.data, vals)
	t.dirty = true
}

// HostRead copies the tensor's contents back to the host.
func (t *Tensor) HostRead() []float64 {
	out := make([]float64, len(t.data))
	copy(out, t.data)
	return out
}

// SetScalar writes a single-element tensor from the host.
func (t *Tensor) SetScalar(v float64) {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("poplar: SetScalar on non-scalar %q", t.Name))
	}
	t.data[0] = v
	t.dirty = true
}

// ScalarValue reads a single-element tensor.
func (t *Tensor) ScalarValue() float64 {
	if len(t.data) != 1 {
		panic(fmt.Sprintf("poplar: ScalarValue on non-scalar %q", t.Name))
	}
	return t.data[0]
}

// ZeroState zeroes every tensor of the engine's graph, restoring the
// all-zero state a freshly compiled engine starts from. A cached
// compiled program whose previous run failed mid-solve (fault, guard
// trip, cancellation) calls this before its next run instead of paying
// graph construction and compilation again: self-initialising programs
// then observe exactly the state a cold engine would.
func (e *Engine) ZeroState() {
	for _, t := range e.graph.tensors {
		clear(t.data)
		t.dirty = true
	}
}
