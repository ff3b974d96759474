package gpu

import (
	"testing"
	"testing/quick"
)

func TestA100Config(t *testing.T) {
	cfg := A100()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SMs != 108 || cfg.WarpSize != 32 {
		t.Fatalf("unexpected A100 shape: %+v", cfg)
	}
}

func TestConfigValidate(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.SMs = 0 },
		func(c *Config) { c.WarpSize = 0 },
		func(c *Config) { c.WarpSchedulers = 0 },
		func(c *Config) { c.MaxThreadsPerBlock = 0 },
		func(c *Config) { c.ClockHz = 0 },
		func(c *Config) { c.MemBytesPerCycle = 0 },
		func(c *Config) { c.DivergencePenalty = -1 },
	}
	for i, mutate := range mutations {
		cfg := A100()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLaunchExecutesAllThreads(t *testing.T) {
	d, err := NewDevice(A100())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 256)
	if _, err := d.Launch("fill", 4, 64, func(th *Thread) {
		out[th.GlobalID()] = float64(th.GlobalID())
		th.Charge(1)
		th.GlobalCoalesced(8)
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("out[%d] = %g", i, v)
		}
	}
	s := d.Stats()
	if s.ThreadsRun != 256 || s.Kernels != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesAccessed != 256*8 {
		t.Fatalf("BytesAccessed = %d", s.BytesAccessed)
	}
}

func TestLaunchValidation(t *testing.T) {
	d, _ := NewDevice(A100())
	if _, err := d.Launch("bad", 0, 32, func(*Thread) {}); err == nil {
		t.Fatal("zero blocks accepted")
	}
	if _, err := d.Launch("bad", 1, 4096, func(*Thread) {}); err == nil {
		t.Fatal("oversized block accepted")
	}
}

func TestLaunchOverheadDominatesSmallKernels(t *testing.T) {
	d, _ := NewDevice(A100())
	cyc, err := d.Launch("tiny", 1, 1, func(th *Thread) { th.Charge(1) })
	if err != nil {
		t.Fatal(err)
	}
	if cyc < A100().LaunchOverheadCycles {
		t.Fatalf("launch cost %d below fixed overhead", cyc)
	}
}

func TestDivergencePenalty(t *testing.T) {
	// A warp where one lane works 1000 cycles and the rest are idle
	// must cost more than a uniform warp at 1000 cycles each.
	cfg := A100()
	dUnequal, _ := NewDevice(cfg)
	dUniform, _ := NewDevice(cfg)
	unequal, _ := dUnequal.Launch("u", 1, 32, func(th *Thread) {
		if th.Idx == 0 {
			th.Charge(1000)
		}
	})
	uniform, _ := dUniform.Launch("e", 1, 32, func(th *Thread) { th.Charge(1000) })
	if unequal <= uniform {
		t.Fatalf("divergent warp (%d) should cost more than uniform (%d)", unequal, uniform)
	}
	if dUnequal.Stats().DivergedCycles == 0 {
		t.Fatal("diverged cycles not recorded")
	}
}

func TestCoalescedVsRandomAccess(t *testing.T) {
	cfg := A100()
	dc, _ := NewDevice(cfg)
	dr, _ := NewDevice(cfg)
	coal, _ := dc.Launch("c", 1, 32, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.GlobalCoalesced(4)
		}
	})
	rnd, _ := dr.Launch("r", 1, 32, func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.GlobalRandom(4)
		}
	})
	if rnd <= coal {
		t.Fatalf("random access (%d) should cost more than coalesced (%d)", rnd, coal)
	}
}

func TestAtomicContentionSerialises(t *testing.T) {
	cfg := A100()
	dSame, _ := NewDevice(cfg)
	dDiff, _ := NewDevice(cfg)
	same, _ := dSame.Launch("same", 32, 32, func(th *Thread) { th.Atomic(0) })
	diff, _ := dDiff.Launch("diff", 32, 32, func(th *Thread) { th.Atomic(th.GlobalID()) })
	if same <= diff {
		t.Fatalf("contended atomics (%d) should cost more than spread (%d)", same, diff)
	}
	if dSame.Stats().Atomics != 1024 {
		t.Fatalf("atomics = %d", dSame.Stats().Atomics)
	}
}

func TestWaveScheduling(t *testing.T) {
	// 2·SMs blocks of equal work should take ~2× the cycles of SMs
	// blocks (two waves), ignoring the fixed launch overhead.
	cfg := A100()
	d1, _ := NewDevice(cfg)
	d2, _ := NewDevice(cfg)
	work := func(th *Thread) { th.Charge(10000) }
	one, _ := d1.Launch("w1", cfg.SMs, 32, work)
	two, _ := d2.Launch("w2", 2*cfg.SMs, 32, work)
	oneBody := one - cfg.LaunchOverheadCycles
	twoBody := two - cfg.LaunchOverheadCycles
	if twoBody != 2*oneBody {
		t.Fatalf("two waves = %d, want %d", twoBody, 2*oneBody)
	}
}

func TestBandwidthBound(t *testing.T) {
	// A kernel streaming far more bytes than compute must be memory
	// bound: body time ≈ bytes / bandwidth.
	cfg := A100()
	d, _ := NewDevice(cfg)
	total, _ := d.Launch("stream", cfg.SMs, 256, func(th *Thread) {
		th.GlobalCoalesced(1 << 20) // 1 MiB per thread, 1 cycle compute
		th.Charge(1)
	})
	bytes := int64(cfg.SMs) * 256 << 20
	wantMin := int64(float64(bytes) / cfg.MemBytesPerCycle)
	if total < wantMin {
		t.Fatalf("memory-bound kernel %d cycles, want ≥ %d", total, wantMin)
	}
	if d.Stats().MemoryCycles < d.Stats().ComputeCycles {
		t.Fatal("kernel should be memory bound")
	}
}

func TestModeledTimeAndReset(t *testing.T) {
	cfg := A100()
	d, _ := NewDevice(cfg)
	d.Launch("k", 1, 1, func(th *Thread) { th.Charge(int64(cfg.ClockHz)) }) //nolint:errcheck
	if ms := d.ModeledTime().Milliseconds(); ms < 990 || ms > 1100 {
		t.Fatalf("ModeledTime ≈ %dms, want ~1000ms", ms)
	}
	d.ResetClock()
	if d.Stats().Cycles != 0 {
		t.Fatal("reset failed")
	}
}

// Property: launches are deterministic — same kernel, same cycles.
func TestLaunchDeterministicProperty(t *testing.T) {
	f := func(work uint16, blocks uint8) bool {
		b := int(blocks)%8 + 1
		k := func(th *Thread) { th.Charge(int64(work) + int64(th.Idx%7)) }
		d1, _ := NewDevice(A100())
		d2, _ := NewDevice(A100())
		c1, err1 := d1.Launch("p", b, 64, k)
		c2, err2 := d2.Launch("p", b, 64, k)
		return err1 == nil && err2 == nil && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHostSyncCharges(t *testing.T) {
	cfg := A100()
	d, _ := NewDevice(cfg)
	d.HostSync()
	d.HostSync()
	s := d.Stats()
	if s.HostSyncs != 2 {
		t.Fatalf("HostSyncs = %d, want 2", s.HostSyncs)
	}
	if s.Cycles != 2*cfg.HostSyncCycles {
		t.Fatalf("Cycles = %d, want %d", s.Cycles, 2*cfg.HostSyncCycles)
	}
}
