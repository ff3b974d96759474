package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
	"hunipu/internal/lsap"
	"hunipu/internal/poplar"
)

// fabricOptions is a k-chip testOptions device that survives chip
// losses down to one chip, on its own program cache.
func fabricOptions(k int) Options {
	o := testOptions()
	o.Config.IPUs = k
	o.MinIPUs = 1
	o.Cache = NewProgramCache(DefaultCacheCapacity)
	return o
}

// fabricMatrix is a seeded n×n matrix of integer costs in [0, 1000).
func fabricMatrix(seed int64, n int) *lsap.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := lsap.NewMatrix(n)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(1000))
	}
	return m
}

// fabricSolve runs one solve of m on o, with the fault schedule spec
// when it is non-empty, and returns the schedule with the outcome.
func fabricSolve(t *testing.T, o Options, spec string, m *lsap.Matrix) (*faultinject.Schedule, *Result, error) {
	t.Helper()
	var sched *faultinject.Schedule
	if spec != "" {
		var err error
		if sched, err = faultinject.ParseSchedule(spec); err != nil {
			t.Fatal(err)
		}
		o.Fault = sched
	}
	r, err := newSolver(t, o).SolveDetailed(m)
	return sched, r, err
}

// certifySelf fails the test unless r carries a solution whose own
// dual certificate proves it optimal at the reference cost.
func certifySelf(t *testing.T, m *lsap.Matrix, r *Result) {
	t.Helper()
	if r == nil || r.Solution == nil || r.Solution.Potentials == nil {
		t.Fatal("guarded multi-chip solve returned no certified solution")
	}
	if err := lsap.VerifyOptimal(m, r.Solution.Assignment, *r.Solution.Potentials, 1e-9); err != nil {
		t.Fatalf("certificate: %v", err)
	}
	if want := refCost(t, m); r.Solution.Cost != want {
		t.Fatalf("cost = %g, want %g", r.Solution.Cost, want)
	}
}

// TestFabricMatchesReference certifies multi-chip HunIPU against the
// JV reference at K∈{1,2,4} across sizes, including n < K and n not a
// multiple of K.
func TestFabricMatchesReference(t *testing.T) {
	seed := int64(42)
	for _, k := range []int{1, 2, 4} {
		o := fabricOptions(k)
		o.Guard = poplar.GuardChecksums
		if name := newSolver(t, o).Name(); !strings.HasPrefix(name, "HunIPU-shard") {
			t.Fatalf("Name() = %q", name)
		}
		for _, n := range []int{1, 2, 3, 7, 16, 33} {
			seed++
			m := fabricMatrix(seed, n)
			_, r, err := fabricSolve(t, o, "", m)
			if err != nil {
				t.Fatalf("K=%d n=%d: %v", k, n, err)
			}
			certifySelf(t, m, r)
			if f := r.Fabric; f.Devices != k || f.Survivors != k || len(f.Lost) != 0 {
				t.Fatalf("K=%d n=%d: fabric report %+v", k, n, f)
			}
			if r.Stats.Supersteps == 0 {
				t.Fatalf("K=%d n=%d: no supersteps recorded", k, n)
			}
		}
	}
}

// TestFabricEmptyMatrix pins the n=0 edge.
func TestFabricEmptyMatrix(t *testing.T) {
	_, r, err := fabricSolve(t, fabricOptions(2), "", lsap.NewMatrix(0))
	if err != nil || len(r.Solution.Assignment) != 0 || r.Fabric.Devices != 2 {
		t.Fatalf("n=0: %v %+v", err, r)
	}
}

// TestFabricRowPlacement pins the row layout: row groups spread evenly
// over the chips in order, lower chips taking the remainder, while a
// single chip keeps the plain blk*colBlocks placement.
func TestFabricRowPlacement(t *testing.T) {
	chipsOf := func(k, n int) []int {
		o, err := fabricOptions(k).withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		b, err := newBuilder(o, n)
		if err != nil {
			t.Fatal(err)
		}
		var chips []int
		for blk := 0; blk < b.numBlocks; blk++ {
			chips = append(chips, o.Config.IPUOf(b.blockTile(blk)))
		}
		return chips
	}
	for _, tc := range []struct {
		k, n int
		want string
	}{
		{4, 10, "[0 0 0 1 1 1 2 2 3 3]"},
		{4, 2, "[0 1]"},
		{2, 13, "[0 0 0 0 0 0 0 1 1 1 1 1 1]"},
	} {
		if got := fmt.Sprint(chipsOf(tc.k, tc.n)); got != tc.want {
			t.Errorf("K=%d n=%d: row groups on chips %s, want %s", tc.k, tc.n, got, tc.want)
		}
	}
	for _, use2D := range []bool{false, true} {
		o := testOptions()
		o.Use2D = use2D
		o, _ = o.withDefaults()
		b, err := newBuilder(o, 40)
		if err != nil {
			t.Fatal(err)
		}
		for blk := 0; blk < b.numBlocks; blk++ {
			if got := b.blockTile(blk); got != blk*b.colBlocks {
				t.Fatalf("2d=%v: single chip puts group %d on tile %d, want %d", use2D, blk, got, blk*b.colBlocks)
			}
		}
	}
}

// TestFabricCrossChipTrafficChargedAtLinkRate pins the cost accounting:
// spreading the rows over more chips makes exchanges cross the IPU-Link,
// which is priced on top of on-chip exchange.
func TestFabricCrossChipTrafficChargedAtLinkRate(t *testing.T) {
	m := fabricMatrix(7, 24)
	exchange := func(k int) int64 {
		_, r, err := fabricSolve(t, fabricOptions(k), "", m.Clone())
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		return r.Stats.ExchangeCycles
	}
	solo := exchange(1)
	for _, k := range []int{2, 4} {
		if got := exchange(k); got <= solo {
			t.Fatalf("K=%d paid %d exchange cycles, single chip %d: cross-chip bytes went unpriced", k, got, solo)
		}
	}
}

// TestFabricTopologyIsolatedCache pins the cache criterion: warm solves
// reuse the program of their own topology and never another's — chip
// count, guard policy and the set of lost chips are all in the key.
func TestFabricTopologyIsolatedCache(t *testing.T) {
	cache := NewProgramCache(DefaultCacheCapacity)
	solve := func(k int, guard poplar.GuardPolicy, spec string) *Result {
		t.Helper()
		o := fabricOptions(k)
		o.Cache, o.Guard = cache, guard
		_, r, err := fabricSolve(t, o, spec, fabricMatrix(3, 12))
		if err != nil {
			t.Fatalf("K=%d guard=%v %q: %v", k, guard, spec, err)
		}
		return r
	}
	if solve(2, poplar.GuardOff, "").Cached {
		t.Fatal("cold K=2 solve reported a cached program")
	}
	if !solve(2, poplar.GuardOff, "").Cached {
		t.Fatal("warm K=2 solve rebuilt its program")
	}
	if solve(4, poplar.GuardOff, "").Cached {
		t.Fatal("K=4 went warm off the K=2 program")
	}
	if solve(2, poplar.GuardChecksums, "").Cached {
		t.Fatal("guarded K=2 went warm off the unguarded program")
	}
	before := cache.Stats().Builds
	solve(4, poplar.GuardOff, "deviceloss at=12 device=1")
	if got := cache.Stats().Builds - before; got != 2 {
		t.Fatalf("a loss on a fresh injector built %d programs, want the K=4 one and its survivor", got)
	}

	s := newSolver(t, fabricOptions(4))
	if s.keyFor(12, 1<<1) == s.keyFor(12, 1<<2) {
		t.Fatal("survivor programs of different losses share a key")
	}
	if s.keyFor(12, 1<<1).cfg.IPUs != 3 {
		t.Fatal("survivor program not keyed by its chip count")
	}
}

// TestFabricDeviceLossResharding is the headline robustness scenario: a
// K=4 solve loses one chip mid-run, moves onto the 3 survivors, and
// still returns a certified optimum whose report records the loss.
func TestFabricDeviceLossResharding(t *testing.T) {
	m := fabricMatrix(9, 24)
	o := fabricOptions(4)
	o.Guard = poplar.GuardChecksums
	sched, r, err := fabricSolve(t, o, "deviceloss at=12 device=2", m)
	if err != nil {
		t.Fatalf("solve after device loss: %v", err)
	}
	certifySelf(t, m, r)
	f := r.Fabric
	if f.Survivors != 3 || len(f.Lost) != 1 || f.Lost[0] != 2 || f.Reshards != 1 || len(f.Quarantined) != 0 {
		t.Fatalf("fabric report %+v, want chip 2 lost and one move onto 3 survivors", f)
	}
	if sched.Fired() != 1 || r.Recovery.CheckpointsRestored == 0 {
		t.Fatalf("fired %d, restored %d: the loss never moved a checkpoint", sched.Fired(), r.Recovery.CheckpointsRestored)
	}
}

// TestFabricSequentialLossesToMinimum loses chips one by one: the solve
// keeps moving until the fabric dips below MinIPUs, then fails with a
// FabricError that wraps the fault and names every lost chip.
func TestFabricSequentialLossesToMinimum(t *testing.T) {
	o := fabricOptions(4)
	o.MinIPUs = 3
	_, r, err := fabricSolve(t, o, "deviceloss every=6 times=3", fabricMatrix(11, 16))
	fabErr, ok := AsFabric(err)
	if !ok {
		t.Fatalf("error = %v, want *FabricError", err)
	}
	if fabErr.Survivors >= fabErr.MinDevices {
		t.Fatalf("FabricError with %d survivors ≥ min %d", fabErr.Survivors, fabErr.MinDevices)
	}
	if len(fabErr.Lost) == 0 || len(fabErr.Lost) != len(r.Fabric.Lost) {
		t.Fatalf("Lost = %v vs report %v", fabErr.Lost, r.Fabric.Lost)
	}
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Class != faultinject.DeviceLoss {
		t.Fatalf("FabricError must unwrap to the DeviceLoss fault, got %v", err)
	}
	if r.Solution != nil {
		t.Fatal("failed solve still returned a solution")
	}
}

// TestFabricLinkLossRollsBack pins the transient path: a one-shot link
// loss goes through the engine's retry-from-checkpoint and the solve
// still certifies without losing a chip.
func TestFabricLinkLossRollsBack(t *testing.T) {
	m := fabricMatrix(13, 16)
	o := fabricOptions(2)
	o.Guard, o.MaxRetries = poplar.GuardChecksums, 3
	sched, r, err := fabricSolve(t, o, "linkloss at=10 times=1", m)
	if err != nil {
		t.Fatalf("solve after link loss: %v", err)
	}
	certifySelf(t, m, r)
	if r.Recovery.Retries != 1 || sched.Fired() != 1 {
		t.Fatalf("Retries = %d, fired = %d, want 1, 1", r.Recovery.Retries, sched.Fired())
	}
	if r.Fabric.Survivors != 2 || len(r.Fabric.Lost) != 0 {
		t.Fatalf("link loss must not cost a chip: %+v", r.Fabric)
	}
}

// TestFabricLinkStormTyped pins the bounded-retry contract: an
// unbounded link storm ends in the typed link fault once the retry
// budget is spent, never a hang, an untyped failure, or a lost chip.
func TestFabricLinkStormTyped(t *testing.T) {
	o := fabricOptions(2)
	o.MaxRetries = 4
	_, r, err := fabricSolve(t, o, "linkloss every=1", fabricMatrix(17, 12))
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Class != faultinject.LinkLoss {
		t.Fatalf("storm error = %v, want the LinkLoss fault", err)
	}
	if r.Recovery.Retries != 4 {
		t.Fatalf("Retries = %d, want the full budget 4", r.Recovery.Retries)
	}
	if len(r.Fabric.Lost) != 0 {
		t.Fatalf("transient faults dropped chips %v", r.Fabric.Lost)
	}
}

// TestFabricMonotoneClock pins the clock convention at fabric scale: a
// one-shot at= rule consumed before a rollback or a move does not
// refire on the replayed prefix, because the superstep clock never
// rewinds — not even onto a survivor program.
func TestFabricMonotoneClock(t *testing.T) {
	m := fabricMatrix(19, 16)
	o := fabricOptions(2)
	o.Guard, o.MaxRetries = poplar.GuardChecksums, 3
	sched, r, err := fabricSolve(t, o, "linkloss at=9 times=1; linkloss at=11 times=1", m)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	certifySelf(t, m, r)
	if sched.Fired() != 2 || r.Recovery.Retries != 2 {
		t.Fatalf("Fired = %d, Retries = %d; a rewound clock would refire", sched.Fired(), r.Recovery.Retries)
	}

	clean, err := newSolver(t, fabricOptions(2)).SolveDetailed(m)
	if err != nil {
		t.Fatal(err)
	}
	_, moved, err := fabricSolve(t, fabricOptions(2), "deviceloss at=40 device=1", m)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Stats.Supersteps <= clean.Stats.Supersteps {
		t.Fatalf("moved solve counted %d supersteps, clean %d: the survivor restarted the clock",
			moved.Stats.Supersteps, clean.Stats.Supersteps)
	}
}

// TestFabricDeviceScopedFault pins that a device= predicate lands on
// the chip it names, and keeps naming it after the survivors are
// renumbered: losing chip 1 of 3 and then chip 2 leaves chip 0.
func TestFabricDeviceScopedFault(t *testing.T) {
	m := fabricMatrix(23, 16)
	o := fabricOptions(3)
	o.Guard = poplar.GuardChecksums
	_, r, err := fabricSolve(t, o, "deviceloss at=8 device=1; deviceloss at=30 device=2", m)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	certifySelf(t, m, r)
	if f := r.Fabric; len(f.Lost) != 2 || f.Lost[0] != 1 || f.Lost[1] != 2 || f.Survivors != 1 {
		t.Fatalf("fabric report %+v, want chips 1 then 2 lost, 1 survivor", f)
	}
}

// TestFabricCapacityPreflight pins the typed C2 rejection: a fabric
// whose chips cannot hold their row groups fails fast with a
// CapacityError, before any superstep runs.
func TestFabricCapacityPreflight(t *testing.T) {
	o := fabricOptions(2)
	o.Config.TilesPerIPU = 2
	o.Config.TileMemory = 256
	_, _, err := fabricSolve(t, o, "", fabricMatrix(29, 64))
	if _, ok := ipu.AsCapacity(err); !ok {
		t.Fatalf("error = %v, want *ipu.CapacityError", err)
	}
}

// TestFabricOptionValidation pins New's typed rejections.
func TestFabricOptionValidation(t *testing.T) {
	bad := func(name string, mut func(*Options)) {
		o := fabricOptions(2)
		mut(&o)
		if _, err := New(o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	bad("negative MinIPUs", func(o *Options) { o.MinIPUs = -1 })
	bad("MinIPUs above IPUs", func(o *Options) { o.MinIPUs = 3 })
	bad("multi-chip without IPU-Link bandwidth", func(o *Options) { o.Config.InterIPUBytesPerCycle = 0 })
	bad("more chips than the lost-set mask holds", func(o *Options) { o.Config.IPUs = maxFabricIPUs + 1 })
	noLink := fabricOptions(1)
	noLink.Config.InterIPUBytesPerCycle = 0
	if _, err := New(noLink); err != nil {
		t.Errorf("single chip needs no IPU-Link: %v", err)
	}
	if name := newSolver(t, fabricOptions(2)).Name(); name != "HunIPU-shard2" {
		t.Errorf("Name() = %q", name)
	}
}

// TestFabricNonFiniteRejected: a fabric solve refuses an infinite cost.
func TestFabricNonFiniteRejected(t *testing.T) {
	m := lsap.NewMatrix(2)
	m.Data = []float64{1, math.Inf(1), 2, 3}
	if _, _, err := fabricSolve(t, fabricOptions(2), "", m); err == nil {
		t.Fatal("+Inf entry accepted")
	}
}

// TestFabricCancellation pins the ContextSolver contract: a cancelled
// context surfaces as the context error, promptly.
func TestFabricCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := newSolver(t, fabricOptions(2)).SolveContext(ctx, fabricMatrix(31, 16))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
}

// TestFabricChaosSweep is the package-local chaos invariant: ≥50
// random fabric schedules per K∈{2,4}, every run certified-optimal or
// typed. The conformance suite runs the cross-solver version; this one
// keeps the invariant enforced even when only this package's tests run.
func TestFabricChaosSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := fabricMatrix(6, 13)
	for _, k := range []int{2, 4} {
		for i := 0; i < 50; i++ {
			sched := faultinject.RandomShardSchedule(rng, k)
			o := fabricOptions(k)
			o.Guard, o.MaxRetries = poplar.GuardChecksums, 3
			_, r, err := fabricSolve(t, o, sched.String(), m.Clone())
			if err != nil {
				var fe *faultinject.FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("K=%d schedule %q: untyped error %v", k, sched.String(), err)
				}
				continue
			}
			certifySelf(t, m, r)
		}
	}
}

// TestFabricGuardShardFlipDetected pins chip attribution: a silent
// flip in chip 1's tile memory is caught by that chip's partial
// checksum, rolled back, and the certified answer matches the CPU
// baseline — at every active guard policy.
func TestFabricGuardShardFlipDetected(t *testing.T) {
	m := fabricMatrix(7, 12)
	for _, guard := range []poplar.GuardPolicy{poplar.GuardChecksums, poplar.GuardInvariants, poplar.GuardParanoid} {
		o := fabricOptions(2)
		o.Guard, o.MaxRetries = guard, 3
		sched, r, err := fabricSolve(t, o, "shardflip at=30 device=1", m)
		if err != nil {
			t.Fatalf("guard %v: %v", guard, err)
		}
		if sched.Fired() == 0 || r.Recovery.SilentFaults == 0 {
			t.Fatalf("guard %v: flip never landed", guard)
		}
		if r.Recovery.GuardTrips == 0 || r.Recovery.Retries == 0 {
			t.Fatalf("guard %v: flip landed but was not caught and rolled back: %+v", guard, r.Recovery)
		}
		if r.Recovery.DetectionLatency <= 0 {
			t.Fatalf("guard %v: detection latency %d, want > 0 (memory flips are caught at cadence)", guard, r.Recovery.DetectionLatency)
		}
		if len(r.Fabric.Quarantined) != 0 {
			t.Fatalf("guard %v: one flip quarantined %v", guard, r.Fabric.Quarantined)
		}
		certifySelf(t, m, r)
	}
}

// TestFabricGuardLinkFlipDetected pins the link path: a flip in data a
// superstep delivers to chip 1 is invisible to the incremental
// checksum update, caught by the next full verify, and repaired by one
// rollback — no quarantine for a single upset. Superstep 39 is the
// first s4_prime, whose row_prime, row_cover and uncov_req writes
// outlive the next full verify (the following s4_uncover's col_cover
// flags are rewritten by Step 3 before one, so a flip there is never
// seen).
func TestFabricGuardLinkFlipDetected(t *testing.T) {
	m := fabricMatrix(7, 24)
	o := fabricOptions(2)
	o.Guard, o.MaxRetries = poplar.GuardChecksums, 3
	_, r, err := fabricSolve(t, o, "linkflip at=39 device=1", m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovery.GuardTrips != 1 || r.Recovery.Retries != 1 || len(r.Fabric.Lost) != 0 {
		t.Fatalf("recovery %+v fabric %+v, want one trip, one rollback, no loss", r.Recovery, r.Fabric)
	}
	certifySelf(t, m, r)
}

// TestFabricGuardRepeatedTripsQuarantine pins the faulty-chip path: a
// chip whose state is corrupted every superstep trips the guard again
// after its rollback, is quarantined out of the fabric, and the solve
// completes on the survivor with a certified answer.
func TestFabricGuardRepeatedTripsQuarantine(t *testing.T) {
	m := fabricMatrix(7, 12)
	o := fabricOptions(2)
	o.Guard, o.MaxRetries = poplar.GuardChecksums, 3
	_, r, err := fabricSolve(t, o, "linkflip every=1 device=1", m)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Fabric
	if len(f.Quarantined) != 1 || f.Quarantined[0] != 1 || len(f.Lost) != 1 || f.Reshards != 1 || f.Survivors != 1 {
		t.Fatalf("fabric report %+v, want chip 1 quarantined and one move", f)
	}
	if r.Recovery.GuardTrips < guardMaxStrikes {
		t.Fatalf("GuardTrips = %d, want at least %d before quarantine", r.Recovery.GuardTrips, guardMaxStrikes)
	}
	certifySelf(t, m, r)
}

// guardMaxStrikes mirrors the engine's strike limit.
const guardMaxStrikes = 2

// TestFabricGuardQuarantineBelowMinimum pins the floor: when
// quarantining the faulty chip would shrink the fabric below MinIPUs,
// the solve fails with a typed *FabricError that records the
// quarantine and unwraps to the corruption.
func TestFabricGuardQuarantineBelowMinimum(t *testing.T) {
	o := fabricOptions(2)
	o.Guard, o.MaxRetries, o.MinIPUs = poplar.GuardChecksums, 3, 2
	_, r, err := fabricSolve(t, o, "linkflip every=1 device=1", fabricMatrix(7, 12))
	fab, ok := AsFabric(err)
	if !ok {
		t.Fatalf("error = %v, want *FabricError", err)
	}
	if len(fab.Quarantined) != 1 || fab.Quarantined[0] != 1 {
		t.Fatalf("FabricError.Quarantined = %v, want [1]", fab.Quarantined)
	}
	if ce, ok := faultinject.AsCorruption(err); !ok || ce.Device != 1 {
		t.Fatalf("FabricError must unwrap to the corruption attributed to chip 1: %v", err)
	}
	if len(r.Fabric.Quarantined) != 1 {
		t.Fatalf("report Quarantined = %v", r.Fabric.Quarantined)
	}
}

// TestFabricGuardOffCommitsCorruption pins the control: with the guard
// off a silent flip schedule lands in live state, nothing trips, and
// a wrong answer escapes — while the same schedule under GuardChecksums
// either yields the certified optimum or fails typed. The schedule and
// matrix are a known-escaping pair (found by sweeping seeds); the
// conformance GuardOff control shows the same escape over a corpus.
func TestFabricGuardOffCommitsCorruption(t *testing.T) {
	const spec = "linkflip every=3 device=1 times=2"
	m := fabricMatrix(33, 13)
	want := refCost(t, m)

	o := fabricOptions(2)
	o.MaxSupersteps = 20000
	sched, r, err := fabricSolve(t, o, spec, m.Clone())
	if err != nil {
		t.Fatalf("the unguarded escape surfaced as an error: %v", err)
	}
	if r.Recovery.GuardTrips != 0 || len(r.Fabric.Quarantined) != 0 {
		t.Fatalf("guard off tripped: %+v %+v", r.Recovery, r.Fabric)
	}
	if sched.Fired() == 0 {
		t.Fatal("flips never fired")
	}
	if r.Solution.Cost == want {
		t.Fatal("known-escaping schedule produced the optimum; the control lost its teeth")
	}

	o.Guard, o.MaxRetries = poplar.GuardChecksums, 3
	_, r, err = fabricSolve(t, o, spec, m.Clone())
	if err != nil {
		if _, ok := faultinject.AsCorruption(err); !ok {
			if _, ok := faultinject.AsFault(err); !ok {
				t.Fatalf("guarded failure is untyped: %v", err)
			}
		}
		return
	}
	certifySelf(t, m, r)
}

// TestFabricGuardCyclesCharged pins the cost accounting: an armed guard
// pays modeled GuardCycles for its per-chip checksums, an unguarded
// fabric pays none, and the overhead shows in the total.
func TestFabricGuardCyclesCharged(t *testing.T) {
	m := fabricMatrix(7, 12)
	o := fabricOptions(2)
	_, off, err := fabricSolve(t, o, "", m)
	if err != nil {
		t.Fatal(err)
	}
	o.Guard = poplar.GuardParanoid
	_, on, err := fabricSolve(t, o, "", m)
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.GuardCycles == 0 || off.Stats.GuardCycles != 0 {
		t.Fatalf("guard cycles: armed %d, unguarded %d", on.Stats.GuardCycles, off.Stats.GuardCycles)
	}
	if on.Stats.TotalCycles() <= off.Stats.TotalCycles() {
		t.Fatalf("guard overhead not visible in the total: %d ≤ %d", on.Stats.TotalCycles(), off.Stats.TotalCycles())
	}
}
