package main

import (
	"context"
	"math"
	"testing"

	"hunipu"
	"hunipu/internal/core"
	"hunipu/internal/ipu"
)

// TestModeledCyclesArePinned pins, from outside the program, the modeled
// device time and cycle split of batch-exact-n128's first pass at seed
// 1, and checks that host parallelism does not move them.
func TestModeledCyclesArePinned(t *testing.T) {
	ctx := context.Background()
	pool, err := makePool(ctx, 1, "batch", batchSize, firstPassSize)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]float64{
		"modeled_us_per_op":                1930.212125,
		"engine.supersteps_per_solve":      6206.6875,
		"engine.vertices_per_solve":        1020733.0625,
		"engine.compute_cycles_per_solve":  1376655.75,
		"engine.sync_cycles_per_solve":     807287.5,
		"engine.exchange_cycles_per_solve": 373588.5,
		"engine.guard_cycles_per_solve":    0,
	}
	// The cycle split accounts for the modeled time at the Mk2 clock.
	var cycles float64
	for _, name := range []string{"compute", "sync", "exchange", "guard"} {
		cycles += pinned["engine."+name+"_cycles_per_solve"]
	}
	if us := cycles / ipu.MK2().ClockHz * 1e6; math.Abs(us-pinned["modeled_us_per_op"]) > 1e-3 {
		t.Fatalf("pinned cycles give %g µs, pinned modeled time is %g µs", us, pinned["modeled_us_per_op"])
	}
	for _, c := range []struct {
		name string
		opts []hunipu.Option
	}{
		{"default parallelism", nil},
		{"parallelism 1", []hunipu.Option{hunipu.WithIPUOptions(core.Options{Parallelism: 1})}},
	} {
		p := &pass{first: batchFirstPass(ctx, pool, c.opts...)}
		got := perLayer(p, &window{})
		got["modeled_us_per_op"] = endToEnd(p)["modeled_us_per_op"]
		for name, want := range pinned {
			if m := got[name]; m.value != want || m.n != firstPassSize {
				t.Errorf("%s: %s = %v over %d solves, want %v over %d", c.name, name, m.value, m.n, want, firstPassSize)
			}
		}
	}
}
