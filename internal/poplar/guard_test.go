package poplar

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hunipu/internal/faultinject"
)

func TestGuardPolicyParseRoundTrip(t *testing.T) {
	for _, g := range []GuardPolicy{GuardOff, GuardChecksums, GuardInvariants, GuardParanoid} {
		got, err := ParseGuardPolicy(g.String())
		if err != nil || got != g {
			t.Errorf("ParseGuardPolicy(%q) = %v, %v", g.String(), got, err)
		}
	}
	if _, err := ParseGuardPolicy("bogus"); err == nil {
		t.Error("ParseGuardPolicy accepted bogus")
	}
	// The engine-level names must agree with the schedule grammar's.
	for i, name := range faultinject.GuardPolicyNames {
		if GuardPolicy(i).String() != name {
			t.Errorf("policy %d: engine name %q, grammar name %q", i, GuardPolicy(i).String(), name)
		}
	}
}

// TestGuardChecksumDetectsTileBitflip is the core SDC story: a silent
// SRAM flip produces no error at injection, the checksum verify trips
// at the next cadence boundary, certified rollback restores a clean
// epoch, and re-execution produces the exact fault-free result.
func TestGuardChecksumDetectsTileBitflip(t *testing.T) {
	got, rep, err := runCountdown(t, 20, "bitflip at=6",
		WithRetry(3), WithCheckpointEvery(4), WithGuard(GuardChecksums))
	if err != nil {
		t.Fatal(err)
	}
	if got != 210 {
		t.Fatalf("acc = %g, want exact fault-free 210", got)
	}
	if rep.SilentFaults != 1 || rep.GuardTrips < 1 || rep.CheckpointsRestored < 1 {
		t.Fatalf("report = %+v, want 1 silent fault detected and rolled back", rep)
	}
	if rep.DetectionLatency < 1 {
		t.Fatalf("report = %+v, want positive detection latency (flip at 6, verify at cadence 4)", rep)
	}
}

// TestGuardOffMissesSilentCorruption is the free-ride check at the
// engine level: with the guard off the same flip sails through with no
// error and a wrong sum — only an external attestation could notice.
func TestGuardOffMissesSilentCorruption(t *testing.T) {
	got, rep, err := runCountdown(t, 20, "bitflip at=6", WithRetry(3))
	if err != nil {
		t.Fatal(err)
	}
	if got == 210 {
		t.Fatalf("acc = %g: the flip was supposed to corrupt the sum (pick another target step)", got)
	}
	if rep.SilentFaults != 1 || rep.GuardTrips != 0 {
		t.Fatalf("report = %+v, want 1 silent fault and no trips with guard off", rep)
	}
}

// TestGuardExchangeBitflipDetected covers the in-fabric flip landing
// after sender-side checksum maintenance: invisible to the incremental
// update, caught by the next full verify.
func TestGuardExchangeBitflipDetected(t *testing.T) {
	got, rep, err := runCountdown(t, 20, "exbitflip at=6",
		WithRetry(3), WithCheckpointEvery(4), WithGuard(GuardChecksums))
	if err != nil {
		t.Fatal(err)
	}
	if got != 210 {
		t.Fatalf("acc = %g, want 210", got)
	}
	if rep.GuardTrips < 1 {
		t.Fatalf("report = %+v, want a checksum trip", rep)
	}
}

// TestGuardTailVerifyCatchesLateFlip pins the tail verify: corruption
// after the last cadence boundary must not ride out on a clean return.
func TestGuardTailVerifyCatchesLateFlip(t *testing.T) {
	got, rep, err := runCountdown(t, 10, "bitflip at=9",
		WithRetry(3), WithCheckpointEvery(64), WithGuard(GuardChecksums))
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("acc = %g, want 55", got)
	}
	if rep.GuardTrips < 1 {
		t.Fatalf("report = %+v, want tail-verify trip", rep)
	}
}

// TestStaleReadInvisibleToChecksums pins the detection hierarchy: a
// dropped write changes no bytes, so checksums must not trip (no false
// positives), and in this self-correcting program the result is even
// still exact.
func TestStaleReadInvisibleToChecksums(t *testing.T) {
	got, rep, err := runCountdown(t, 20, "stale at=6",
		WithRetry(3), WithCheckpointEvery(4), WithGuard(GuardChecksums))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SilentFaults != 1 || rep.GuardTrips != 0 {
		t.Fatalf("report = %+v, want stale read to slip past checksums", rep)
	}
	if got != 210 {
		t.Fatalf("acc = %g, want 210 (dropped tick is re-executed here)", got)
	}
}

// TestInvariantProbeTripsTyped registers a probe that validates the
// countdown's algebraic invariant acc + c(c+1)/2 == n(n+1)/2 and checks
// a stale-style corruption of the invariant surfaces as a typed
// *faultinject.CorruptionError naming the probe.
func TestInvariantProbeTripsTyped(t *testing.T) {
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	sched, err := faultinject.ParseSchedule("bitflip at=6")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(sched)
	eng, err := NewEngine(g, prog, dev, WithCheckpointEvery(4), WithGuard(GuardInvariants), WithRetry(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	eng.RegisterInvariant(InvariantProbe{
		Name:     "countdown-identity",
		Cost:     4,
		ArmAfter: 1,
		Check: func() error {
			c, a := counter.ScalarValue(), acc.ScalarValue()
			if a+c*(c+1)/2 != n*(n+1)/2 {
				return fmt.Errorf("identity violated: acc=%g counter=%g", a, c)
			}
			return nil
		},
	})
	counter.SetScalar(n)
	acc.SetScalar(0)
	pred.SetScalar(1)
	if err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := acc.ScalarValue(); got != 210 {
		t.Fatalf("acc = %g, want 210", got)
	}
	if rep := eng.Report(); rep.GuardTrips < 1 {
		t.Fatalf("report = %+v, want probe or checksum trip", rep)
	}
}

// TestAlwaysFailingProbeExhaustsAsCorruption: when every epoch is
// poisoned from the probe's point of view, recovery keeps discarding
// epochs and finally surfaces the typed corruption error rather than an
// uncertified result.
func TestAlwaysFailingProbeExhaustsAsCorruption(t *testing.T) {
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	eng, err := NewEngine(g, prog, dev, WithCheckpointEvery(4), WithGuard(GuardInvariants), WithRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterInvariant(InvariantProbe{
		Name:     "always-fail",
		Cost:     1,
		ArmAfter: 2,
		Check:    func() error { return errors.New("synthetic violation") },
	})
	counter.SetScalar(20)
	acc.SetScalar(0)
	pred.SetScalar(1)
	err = eng.RunContext(context.Background())
	ce, ok := faultinject.AsCorruption(err)
	if !ok {
		t.Fatalf("err = %v, want *faultinject.CorruptionError", err)
	}
	if ce.Guard != "always-fail" {
		t.Fatalf("Guard = %q, want always-fail", ce.Guard)
	}
	if rep := eng.Report(); rep.GuardTrips < 2 || rep.CheckpointsRestored < 1 {
		t.Fatalf("report = %+v, want repeated trips with a rollback in between", rep)
	}
}

// TestRollbackPastPoisonDiscardsEpochs drives certified rollback
// directly: with a ring holding one clean and two poisoned epochs, the
// walk must discard the poisoned pair and land on the clean one. (The
// integration path cannot save a detectably poisoned epoch — the guard
// verifies before every save — so only probe-invisible corruption
// reaches the ring, which is exactly what this models.)
func TestRollbackPastPoisonDiscardsEpochs(t *testing.T) {
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	eng, err := NewEngine(g, prog, dev, WithGuard(GuardInvariants))
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterInvariant(InvariantProbe{
		Name:     "acc-bound",
		ArmAfter: 1,
		Check: func() error {
			if a := acc.ScalarValue(); a > 100 {
				return fmt.Errorf("acc = %g exceeds bound", a)
			}
			return nil
		},
	})
	counter.SetScalar(20)
	pred.SetScalar(1)
	eng.cpLive = 4
	eng.initGuard()
	for i, a := range []float64{50, 120, 150} { // clean, poisoned, poisoned
		acc.SetScalar(a)
		eng.steps = int64(4 * (i + 1))
		eng.saveCheckpoint()
	}
	ce := &faultinject.CorruptionError{Guard: "acc-bound", Detected: 14}
	if err := eng.rollbackPastPoison(ce); err != nil {
		t.Fatalf("rollback failed: %v", err)
	}
	if ce.PoisonedEpochs != 2 {
		t.Fatalf("PoisonedEpochs = %d, want 2", ce.PoisonedEpochs)
	}
	if got := acc.ScalarValue(); got != 50 {
		t.Fatalf("restored acc = %g, want the clean epoch's 50", got)
	}
	if rep := eng.Report(); rep.RollbackEpochs != 2 {
		t.Fatalf("report = %+v, want RollbackEpochs 2", rep)
	}
}

// TestWatchdogConvertsWedgedLoop: a stale-read storm that drops every
// predicate-clearing write wedges the loop; with the guard active the
// budget exhaustion is converted to a typed corruption verdict instead
// of an untyped "non-terminating program" error.
func TestWatchdogConvertsWedgedLoop(t *testing.T) {
	_, rep, err := runCountdown(t, 5, "stale every=1 times=-1",
		WithRetry(2), WithCheckpointEvery(4), WithGuard(GuardChecksums),
		WithMaxSupersteps(200))
	ce, ok := faultinject.AsCorruption(err)
	if !ok {
		t.Fatalf("err = %v, want watchdog corruption error", err)
	}
	if ce.Guard != "watchdog" {
		t.Fatalf("Guard = %q, want watchdog", ce.Guard)
	}
	if rep.SilentFaults == 0 {
		t.Fatalf("report = %+v, want silent faults recorded", rep)
	}
}

// TestGuardOffWedgedLoopStaysUntyped pins the contrast: without a
// guard the same wedge is an ordinary budget error, not a corruption
// verdict.
func TestGuardOffWedgedLoopStaysUntyped(t *testing.T) {
	_, _, err := runCountdown(t, 5, "stale every=1 times=-1",
		WithRetry(2), WithCheckpointEvery(4), WithMaxSupersteps(200))
	if err == nil {
		t.Fatal("wedged loop terminated?")
	}
	if _, ok := faultinject.AsCorruption(err); ok {
		t.Fatalf("err = %v: guard-off run must not produce corruption verdicts", err)
	}
	if !errors.Is(err, errBudget) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
}

// TestCheckpointRingBounded pins the ring: long runs keep at most
// guardRingSize epochs and recycle buffers.
func TestCheckpointRingBounded(t *testing.T) {
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	eng, err := NewEngine(g, prog, dev, WithCheckpointEvery(2), WithRetry(1))
	if err != nil {
		t.Fatal(err)
	}
	counter.SetScalar(40)
	acc.SetScalar(0)
	pred.SetScalar(1)
	done := make(chan struct{})
	go func() { defer close(done); _ = eng.RunContext(context.Background()) }()
	<-done
	if rep := eng.Report(); rep.CheckpointsSaved < 10 {
		t.Fatalf("report = %+v, want many checkpoints over 40 steps at cadence 2", rep)
	}
	// The ring itself is cleared at run end; re-run and inspect mid-run
	// invariants indirectly via a second clean pass.
	counter.SetScalar(40)
	acc.SetScalar(0)
	pred.SetScalar(1)
	if err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := acc.ScalarValue(); got != 820 {
		t.Fatalf("acc = %g, want 820", got)
	}
}

// TestGuardCyclesCharged pins the cost model: any active guard charges
// cycles, higher policies charge more, and off charges none.
func TestGuardCyclesCharged(t *testing.T) {
	run := func(g GuardPolicy) int64 {
		graph, counter, acc, pred, prog := newCountdown()
		dev := newDev(t, smallCfg())
		eng, err := NewEngine(graph, prog, dev, WithCheckpointEvery(16), WithGuard(g))
		if err != nil {
			t.Fatal(err)
		}
		eng.RegisterInvariant(InvariantProbe{Name: "noop", Cost: 16, ArmAfter: 1, Check: func() error { return nil }})
		counter.SetScalar(30)
		acc.SetScalar(0)
		pred.SetScalar(1)
		if err := eng.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().GuardCycles
	}
	off, sums, inv, par := run(GuardOff), run(GuardChecksums), run(GuardInvariants), run(GuardParanoid)
	if off != 0 {
		t.Fatalf("GuardOff charged %d cycles", off)
	}
	if !(par > inv && inv > sums && sums > 0) {
		t.Fatalf("guard cycle ordering violated: off=%d checksums=%d invariants=%d paranoid=%d", off, sums, inv, par)
	}
}

// TestGuardAttributesChip pins the multi-chip guard: checksums are kept
// per chip, so a flip landing on state held on chip 1 trips with
// CorruptionError.Device = 1, and a chip caught again after a clean
// rollback is surfaced instead of rolled back a second time. A
// single-chip engine keeps one checksum per tensor and attributes
// nothing.
func TestGuardAttributesChip(t *testing.T) {
	run := func(chips int, spec string, retries int) (RunReport, error) {
		t.Helper()
		cfg := smallCfg()
		cfg.IPUs = chips
		g := NewGraph(cfg)
		v := g.AddVariable("v", Float, 2)
		far := cfg.Tiles() - 1
		g.SetTileMapping(v, 0, 0, 1)
		g.SetTileMapping(v, far, 1, 2)
		cs := g.AddComputeSet("inc")
		for i, tile := range []int{0, far} {
			r := v.Slice(i, i+1)
			cs.AddVertex(tile, func(w *Worker) {
				r.Data()[0]++
				w.ChargeVec(1)
			}).Reads(r).Writes(r)
		}
		dev := newDev(t, cfg)
		sched, err := faultinject.ParseSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetInjector(sched)
		eng, err := NewEngine(g, Repeat(16, Execute(cs)), dev,
			WithGuard(GuardChecksums), WithCheckpointEvery(4), WithRetry(retries))
		if err != nil {
			t.Fatal(err)
		}
		err = eng.RunContext(context.Background())
		if got := len(eng.sums); got != chips*len(g.tensors) {
			t.Fatalf("%d chips: %d checksums for %d tensors", chips, got, len(g.tensors))
		}
		return eng.Report(), err
	}
	for _, spec := range []string{"shardflip at=2 device=1", "linkflip at=2 device=1"} {
		_, err := run(2, spec, 0)
		if ce, ok := faultinject.AsCorruption(err); !ok || ce.Device != 1 {
			t.Fatalf("%s: err = %v, want a trip attributed to chip 1", spec, err)
		}
	}
	rep, err := run(2, "shardflip every=3 device=1", 8)
	if ce, ok := faultinject.AsCorruption(err); !ok || ce.Device != 1 || rep.GuardTrips != guardMaxStrikes {
		t.Fatalf("err = %v after %d trips, want chip 1 surfaced at its strike %d", err, rep.GuardTrips, guardMaxStrikes)
	}
	if _, err := run(1, "bitflip at=2", 0); err == nil {
		t.Fatal("single-chip flip not caught")
	} else if ce, _ := faultinject.AsCorruption(err); ce == nil || ce.Device != -1 {
		t.Fatalf("single-chip trip = %v, want unattributed", err)
	}
}
