package conformance

import (
	"testing"

	"hunipu/internal/poplar"
)

// TestShardSilentChaosCertifiedOrTyped is the fabric SDC acceptance
// sweep: ≥50 mixed loss+corruption schedules per fabric size in
// {2, 4}, guarded at the sharded default (or the SILENT_GUARD policy
// in CI's matrix), and every run ends certified-optimal or as a typed
// error — a silently wrong answer never escapes a guarded fabric.
func TestShardSilentChaosCertifiedOrTyped(t *testing.T) {
	cfg := DefaultShardSilentChaosConfig()
	cfg.Guard = silentGuard(t)
	cfg.Seed = chaosSeed(t)
	if cfg.Schedules < 50 {
		t.Fatalf("config sweeps %d schedules, acceptance floor is 50", cfg.Schedules)
	}
	rep, err := RunShardSilentChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Schedules * len(cfg.Sizes) * len(cfg.Fabrics)
	if rep.Runs != want {
		t.Fatalf("Runs = %d, want %d", rep.Runs, want)
	}
	for _, v := range rep.Wrong {
		t.Errorf("wrong answer escaped the fabric guard: %s", v)
	}
	for _, v := range rep.Untyped {
		t.Errorf("untyped failure under fabric guard: %s", v)
	}
	if rep.Survived+rep.Corruptions == 0 {
		t.Fatalf("sweep never exercised the fabric guard: %+v", rep)
	}
	if rep.Detections == 0 {
		t.Fatalf("sweep recorded no guard detections: %+v", rep)
	}
	t.Logf("shard silent chaos seed=%d guard=%v: %d runs, %d clean, %d survived, %d corruption errors (max latency %d), %d fault errors; %d detections, %d quarantined, %d lost, %d reshards, %d rollbacks",
		cfg.Seed, cfg.Guard, rep.Runs, rep.Clean, rep.Survived, rep.Corruptions, rep.MaxLatency,
		rep.TypedFaults, rep.Detections, rep.Quarantined, rep.DevicesLost,
		rep.Reshards, rep.Rollbacks)
}

// TestShardSilentChaosDeterministic: the same seed must replay the
// exact same fabric sweep, or CHAOS_SEED reproducers are worthless.
func TestShardSilentChaosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("shard silent chaos replay is covered by the full run")
	}
	cfg := ShardSilentChaosConfig{
		Schedules: 50, Fabrics: []int{2, 4}, Sizes: []int{8}, Retries: 2,
		Guard: poplar.GuardChecksums, Seed: 42,
	}
	a, err := RunShardSilentChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardSilentChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs != b.Runs || a.Clean != b.Clean || a.Survived != b.Survived ||
		a.Corruptions != b.Corruptions || a.TypedFaults != b.TypedFaults ||
		a.Detections != b.Detections || a.Quarantined != b.Quarantined {
		t.Fatalf("same seed, different sweeps: %+v vs %+v", a, b)
	}
}

// TestShardSilentChaosGuardOffWrongAnswerEscapes proves the fabric
// attack is real: with the guard off, at least one seeded schedule
// yields a wrong answer that only test-side certification catches —
// the control experiment justifying the fabric guard (and the sharded
// GuardChecksums default).
func TestShardSilentChaosGuardOffWrongAnswerEscapes(t *testing.T) {
	cfg := DefaultShardSilentChaosConfig()
	cfg.Guard = poplar.GuardOff
	rep, err := RunShardSilentChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Wrong) == 0 {
		t.Fatalf("no silent wrong answer escaped the unguarded fabric — the fabric fault classes are not corrupting live state (%+v)", rep)
	}
	if rep.Quarantined != 0 || rep.Detections != 0 {
		t.Fatalf("unguarded sweep still ran guard machinery: %+v", rep)
	}
	t.Logf("shard silent chaos @off: %d/%d runs returned a wrong answer caught only by test-side certification",
		len(rep.Wrong), rep.Runs)
}
