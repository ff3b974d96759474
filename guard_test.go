package hunipu

import (
	"errors"
	"testing"

	"hunipu/internal/core"
	"hunipu/internal/faultinject"
)

func TestWithGuardCleanSolve(t *testing.T) {
	costs := testCosts(16, 21)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs, WithGuard(GuardInvariants))
	if err != nil {
		t.Fatalf("guarded solve: %v", err)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("guarded cost = %g, unguarded %g", res.Cost, clean.Cost)
	}
	att := res.Report.Attempts[0]
	if att.GuardCycles <= 0 {
		t.Fatalf("GuardCycles = %d, want > 0 under WithGuard", att.GuardCycles)
	}
	if att.GuardTrips != 0 || att.RollbackEpochs != 0 {
		t.Fatalf("clean guarded solve recorded trips: %+v", att)
	}

	// Off stays free.
	res, err = Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Report.Attempts[0].GuardCycles; got != 0 {
		t.Fatalf("GuardCycles = %d without WithGuard, want 0", got)
	}
}

func TestWithGuardUnknownPolicyRejected(t *testing.T) {
	_, err := Solve(testCosts(4, 1), WithGuard(GuardPolicy(9)))
	if !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("err = %v, want ErrInvalidOption", err)
	}
}

func TestGuardPolicyParse(t *testing.T) {
	for _, name := range []string{"off", "checksums", "invariants", "paranoid"} {
		p, err := ParseGuardPolicy(name)
		if err != nil {
			t.Fatalf("ParseGuardPolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Fatalf("round-trip %q → %v", name, p)
		}
	}
	if _, err := ParseGuardPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestScheduleCarriedGuardClause: a guard= clause in the fault-schedule
// spec selects the policy when WithGuard is absent, so one spec string
// replays the whole experiment — injection and defense.
func TestScheduleCarriedGuardClause(t *testing.T) {
	costs := testCosts(16, 22)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(costs,
		WithFaultSchedule("seed=4; guard=invariants; bitflip after=10 every=1 times=1 phase=s1_*"),
		WithRecovery(3),
	)
	if err != nil {
		// Detection without recovery must still be typed.
		if _, ok := faultinject.AsCorruption(err); !ok {
			t.Fatalf("untyped guarded failure: %v", err)
		}
		return
	}
	if res.Cost != clean.Cost {
		t.Fatalf("guarded recovered cost = %g, want %g", res.Cost, clean.Cost)
	}
	att := res.Report.Attempts[0]
	if att.GuardCycles == 0 {
		t.Fatal("schedule guard= clause did not activate the guard")
	}
	if att.Faults == 0 {
		t.Fatal("schedule never fired")
	}
	if att.GuardTrips == 0 {
		t.Fatal("silent bitflip survived without a guard trip")
	}
	// Explicit WithGuard overrides the clause.
	res, err = Solve(costs,
		WithFaultSchedule("seed=4; guard=paranoid; bitflip after=99999 every=1 times=1"),
		WithGuard(GuardOff),
	)
	if err != nil {
		t.Fatalf("override solve: %v", err)
	}
	if got := res.Report.Attempts[0].GuardCycles; got != 0 {
		t.Fatalf("WithGuard(GuardOff) did not override guard= clause: GuardCycles = %d", got)
	}
}

// TestGuardCorruptionFallsBack: when the guard detects unrecoverable
// corruption on the IPU, the fallback chain still serves the answer
// from a clean device, with the typed corruption recorded per attempt.
func TestGuardCorruptionFallsBack(t *testing.T) {
	costs := testCosts(16, 23)
	clean, err := Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	// Unbounded stale-read storm wedges every IPU retry; the watchdog
	// converts budget exhaustion into a typed corruption error.
	res, err := Solve(costs,
		WithFaultSchedule("seed=6; guard=invariants; stale every=1 times=-1 phase=s3_*"),
		WithIPUOptions(core.Options{MaxSupersteps: 4000}),
		WithFallback(DeviceCPU),
	)
	if err != nil {
		t.Fatalf("fallback did not serve: %v", err)
	}
	if res.Cost != clean.Cost {
		t.Fatalf("fallback cost = %g, want %g", res.Cost, clean.Cost)
	}
	if !res.Report.FellBack || res.Report.Served != DeviceCPU {
		t.Fatalf("report = %+v, want CPU fallback", res.Report)
	}
	ipuAtt := res.Report.Attempts[0]
	if _, ok := faultinject.AsCorruption(ipuAtt.Err); !ok {
		t.Fatalf("IPU attempt error not a CorruptionError: %v", ipuAtt.Err)
	}
}
