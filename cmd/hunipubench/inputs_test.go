package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestInputsFollowTheSeed checks that one seed always yields the same
// arrival times, size draws and matrices, byte for byte, and that
// another seed yields different ones.
func TestInputsFollowTheSeed(t *testing.T) {
	sched := func(seed int64) []arrival { return openSchedule(seed, "main", 30, 20*time.Second, overloadMix) }
	if a, b := sched(1), sched(1); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if a, b := sched(1), sched(2); reflect.DeepEqual(a, b) {
		t.Error("different seeds gave the same schedule")
	}
	if a, b := sched(1), openSchedule(1, "traced", 30, 20*time.Second, overloadMix); reflect.DeepEqual(a, b) {
		t.Error("the untraced and traced windows share a schedule")
	}

	encoded := func(seed int64) []byte {
		pool, err := makePool(context.Background(), seed, "mix32", 32, 2)
		if err != nil {
			t.Fatal(err)
		}
		var b []byte
		for _, inst := range pool {
			b = appendCosts(b, inst.costs)
		}
		return b
	}
	if !bytes.Equal(encoded(1), encoded(1)) {
		t.Error("same seed gave different matrices")
	}
	if bytes.Equal(encoded(1), encoded(2)) {
		t.Error("different seeds gave the same matrices")
	}

	frame := func(seed int64, k int) []byte {
		f, err := newFrames(seed, 0, 16)
		if err != nil {
			t.Fatal(err)
		}
		var costs [][]float64
		for f.index < k {
			if costs, _, err = f.next(); err != nil {
				t.Fatal(err)
			}
		}
		return appendCosts(nil, costs)
	}
	if !bytes.Equal(frame(1, 5), frame(1, 5)) {
		t.Error("same seed gave different stream frames")
	}
	if bytes.Equal(frame(1, 5), frame(2, 5)) || bytes.Equal(frame(1, 4), frame(1, 5)) {
		t.Error("stream frames do not follow the seed and the frame index")
	}
}

func TestScheduleShape(t *testing.T) {
	s := openSchedule(3, "main", 30, 20*time.Second, overloadMix)
	if len(s) != 600 {
		t.Fatalf("%d arrivals, want 600", len(s))
	}
	counts := make([]int, len(overloadMix.sizes))
	for i, a := range s {
		if a.due < 0 || a.due >= 20*time.Second || i > 0 && a.due < s[i-1].due {
			t.Fatalf("arrival %d due at %v: out of the window or out of order", i, a.due)
		}
		if a.inst < 0 || a.inst >= overloadMix.pool {
			t.Fatalf("arrival %d draws instance %d of a pool of %d", i, a.inst, overloadMix.pool)
		}
		counts[a.size]++
	}
	for k, want := range []int{240, 270, 90} {
		if counts[k] != want {
			t.Errorf("size %d drawn %d times, want exactly %d", overloadMix.sizes[k], counts[k], want)
		}
	}
}

// TestSteadyPercentilesInsideClusters checks that p50 and p95 of the
// steady mix fall well inside one size's share, not on the edge
// between two sizes.
func TestSteadyPercentilesInsideClusters(t *testing.T) {
	for _, q := range []float64{0.50, 0.95} {
		cum := 0.0
		for k, w := range steadyMix.weights {
			if lo, hi := cum, cum+w; q >= lo && q <= hi && (q-lo < 0.04 || hi-q < 0.04) {
				t.Errorf("p%g sits %.2f from an edge of the n=%d share [%.2f, %.2f]", 100*q, min(q-lo, hi-q), steadyMix.sizes[k], lo, hi)
			}
			cum += w
		}
	}
}

func TestSolveBody(t *testing.T) {
	costs := [][]float64{{4, 1.5}, {2, 1e21}}
	body := solveBody(appendCosts(nil, costs), 150, "bounded(0.05)", "stream-1")
	var got struct {
		Costs      [][]float64 `json:"costs"`
		DeadlineMS int64       `json:"deadline_ms"`
		Quality    string      `json:"quality"`
		Key        string      `json:"key"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body %s: %v", body, err)
	}
	if !reflect.DeepEqual(got.Costs, costs) || got.DeadlineMS != 150 || got.Quality != "bounded(0.05)" || got.Key != "stream-1" {
		t.Errorf("body decoded as %+v", got)
	}
	if bytes.Contains(solveBody([]byte("[]"), 0, "", ""), []byte("deadline")) {
		t.Error("a zero deadline was sent")
	}
}
