package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hunipu"
	"hunipu/internal/faultinject"
)

// fakeDeadlineCtx carries a deadline for the fake clock to measure
// against without arming any real timer: Done never fires, so only the
// server's own deadline gating can shed the request.
type fakeDeadlineCtx struct {
	context.Context
	deadline time.Time
}

func (c fakeDeadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// dequeueClock is a hand-advanced Config.Now.
type dequeueClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *dequeueClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *dequeueClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestDeadlineGatedAtDequeue is the regression test for the
// arrival-time deadline bug: a request admitted with a comfortable
// deadline whose queue wait then consumes it must be shed at dequeue,
// not started. The worker is held by a gated solve while the fake
// clock jumps past the queued request's deadline.
func TestDeadlineGatedAtDequeue(t *testing.T) {
	clk := &dequeueClock{now: time.Unix(1000, 0)}
	g := newGate()
	s := newTestServer(t, Config{
		Devices: []hunipu.Device{hunipu.DeviceIPU},
		Workers: 1,
		Inject:  map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: g},
		Now:     clk.Now,
	})

	first := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Costs: testCosts(8, 1)})
		first <- err
	}()
	select {
	case <-g.blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("first solve never reached the gate")
	}

	// Queued behind the held worker with an hour of deadline — plenty
	// at arrival time.
	ctx := fakeDeadlineCtx{context.Background(), clk.Now().Add(time.Hour)}
	second := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Costs: testCosts(8, 2)})
		second <- err
	}()
	// Give the second request time to clear admission and sit in the
	// queue, then burn its whole deadline while it waits.
	for i := 0; i < 1000 && s.Metrics().Admitted.Load() < 2; i++ {
		time.Sleep(time.Millisecond)
	}
	if s.Metrics().Admitted.Load() < 2 {
		t.Fatal("second request never admitted")
	}
	clk.Advance(2 * time.Hour)
	close(g.release)

	if err := <-first; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	err := <-second
	if !errors.Is(err, ErrDeadlineTooShort) {
		t.Fatalf("stale queued request: err = %v, want ErrDeadlineTooShort", err)
	}
	if got := s.Metrics().ShedDeadline.Load(); got != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", got)
	}
}

// TestBrownoutServesPreviouslyShedRequest: the headline degradation
// win — a deadline that cannot cover the exact solve's modeled cost
// used to shed with ErrDeadlineTooShort; with brownout tiers armed the
// same request completes as a certified Bounded(ε) response with a
// reported gap.
func TestBrownoutServesPreviouslyShedRequest(t *testing.T) {
	costs := testCosts(16, 3)
	// Modeled exact cost: 100ms × 256 cells ≈ 25.6s; bounded discount
	// prices the ε tier at ¼ of that. A 10s deadline sits between the
	// two, so exact sheds and bounded fits. (The deadline never really
	// expires — actual solves run in microseconds.)
	mk := func(tiers []float64) Config {
		return Config{
			Devices:         []hunipu.Device{hunipu.DeviceIPU},
			Workers:         1,
			SeedCostPerCell: 100 * time.Millisecond,
			BrownoutTiers:   tiers,
		}
	}

	shedSrv := newTestServer(t, mk(nil))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := shedSrv.Submit(ctx, Request{Costs: costs}); !errors.Is(err, ErrDeadlineTooShort) {
		t.Fatalf("without tiers: err = %v, want ErrDeadlineTooShort", err)
	}

	s := newTestServer(t, mk([]float64{0.05, 0.1}))
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	res, err := s.Submit(ctx2, Request{Costs: costs})
	if err != nil {
		t.Fatalf("with tiers: %v", err)
	}
	if !res.Quality.IsBounded() || res.Quality.Epsilon() != 0.05 {
		t.Fatalf("served quality %v, want bounded(0.05) — the strictest tier that fits", res.Quality)
	}
	if res.Gap > 0.05 {
		t.Fatalf("reported gap %g exceeds the served tier's ε", res.Gap)
	}
	exact, err := hunipu.Solve(costs, hunipu.OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost-exact.Cost > 0.05*(1+exact.Cost)+1e-9 {
		t.Fatalf("bounded answer cost %g vs optimum %g breaks the certified ε", res.Cost, exact.Cost)
	}
	m := s.Metrics()
	if m.Brownouts.Load() != 1 || m.BoundedSolves.Load() != 1 {
		t.Fatalf("brownouts=%d bounded_solves=%d, want 1/1", m.Brownouts.Load(), m.BoundedSolves.Load())
	}
}

// TestBrownoutPricesFirstAvailableDevice: admission prices a request on
// the device the worker will try first, not on the cheapest device in
// the ladder. The IPU has learned a slow coefficient (exact n=16 ≈
// 25.6s, bounded ≈ 6.4s) while the CPU has never served and still sits
// at the 50ns/cell seed; a 10s deadline must brown the request out to
// the bounded tier on the IPU rather than admit it exact on the CPU's
// estimate.
func TestBrownoutPricesFirstAvailableDevice(t *testing.T) {
	s := newTestServer(t, Config{
		Devices:       []hunipu.Device{hunipu.DeviceIPU, hunipu.DeviceCPU},
		Workers:       1,
		BrownoutTiers: []float64{0.05},
	})
	s.model.Observe(hunipu.DeviceIPU, 16, 25600*time.Millisecond, false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := s.Submit(ctx, Request{Costs: testCosts(16, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quality.IsBounded() || res.Quality.Epsilon() != 0.05 {
		t.Fatalf("served quality %v, want bounded(0.05) — exact does not fit on the IPU", res.Quality)
	}
	if res.Device != hunipu.DeviceIPU {
		t.Fatalf("served on %v, want the first available device, IPU", res.Device)
	}
	if got := s.Metrics().Brownouts.Load(); got != 1 {
		t.Fatalf("Brownouts = %d, want 1", got)
	}
}

// TestBoundedRequestHonoured: a client that *asks* for Bounded(ε) gets
// exactly that tier when the deadline allows, with no brownout counted.
func TestBoundedRequestHonoured(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	res, err := s.Submit(context.Background(), Request{Costs: testCosts(12, 4), Quality: hunipu.Bounded(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quality.IsBounded() || res.Quality.Epsilon() != 0.1 {
		t.Fatalf("served quality %v, want bounded(0.1)", res.Quality)
	}
	m := s.Metrics()
	if m.Brownouts.Load() != 0 {
		t.Fatalf("brownouts = %d for an honoured request", m.Brownouts.Load())
	}
	if m.BoundedSolves.Load() != 1 {
		t.Fatalf("bounded_solves = %d, want 1", m.BoundedSolves.Load())
	}
}

// TestQueuePressureBrownout: a queue filled to the brownout fraction
// degrades exact requests to the first tier even with no deadline.
func TestQueuePressureBrownout(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{
		Devices:       []hunipu.Device{hunipu.DeviceIPU},
		Workers:       1,
		QueueDepth:    4,
		BrownoutTiers: []float64{0.1},
		Inject:        map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: g},
	})
	results := make(chan *hunipu.Result, 5)
	errs := make(chan error, 5)
	submit := func(seed int64) {
		res, err := s.Submit(context.Background(), Request{Costs: testCosts(8, seed)})
		results <- res
		errs <- err
	}
	go submit(1)
	select {
	case <-g.blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("first solve never reached the gate")
	}
	// Fill the queue while the worker is held: its next dequeue leaves
	// 3 = 0.75×4 requests queued behind it, so that one runs under
	// pressure.
	for i := int64(2); i <= 5; i++ {
		go submit(i)
	}
	for i := 0; i < 1000 && s.Metrics().Admitted.Load() < 5; i++ {
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	var browned int
	for i := 0; i < 5; i++ {
		res := <-results
		if err := <-errs; err != nil {
			t.Fatalf("request failed: %v", err)
		}
		if res.Quality.IsBounded() {
			if res.Gap > 0.1 {
				t.Fatalf("pressure-browned response gap %g exceeds tier ε", res.Gap)
			}
			browned++
		}
	}
	if browned == 0 {
		t.Fatal("queue pressure never browned out a request")
	}
	if got := s.Metrics().Brownouts.Load(); int(got) != browned {
		t.Fatalf("Brownouts = %d, responses browned = %d", got, browned)
	}
}

// TestWarmCacheRoundTrip: keyed requests warm-start from the previous
// solve's duals and stay correct; unkeyed requests never touch the
// cache.
func TestWarmCacheRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	costs := testCosts(12, 5)
	exact, err := hunipu.Solve(costs, hunipu.OnCPU())
	if err != nil {
		t.Fatal(err)
	}
	// Bounded solves produce duals on every device, so a keyed bounded
	// stream exercises store-then-reuse end to end.
	req := Request{Costs: costs, Quality: hunipu.Bounded(0.05), Key: "stream-a"}
	if _, err := s.Submit(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().WarmStarts.Load(); got != 0 {
		t.Fatalf("first keyed solve warm-started (%d)", got)
	}
	res, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Metrics().WarmStarts.Load(); got != 1 {
		t.Fatalf("WarmStarts = %d after second keyed solve, want 1", got)
	}
	if res.Cost-exact.Cost > 0.05*(1+exact.Cost)+1e-9 {
		t.Fatalf("warm-started answer cost %g vs optimum %g breaks ε", res.Cost, exact.Cost)
	}
	if !res.Report.Attempts[0].WarmStarted {
		t.Fatal("serving attempt not marked warm-started")
	}
	// Unkeyed requests leave the cache alone.
	if _, err := s.Submit(context.Background(), Request{Costs: costs}); err != nil {
		t.Fatal(err)
	}
	if got := s.warm.len(); got != 1 {
		t.Fatalf("cache holds %d keys, want 1", got)
	}
}

// TestBoundedChaosServe: under a persistent fault schedule on the IPU
// with brownout tiers armed, every completed response is either served
// at its certified tier (gap ≤ ε) or failed typed — never an
// uncertified bounded answer.
func TestBoundedChaosServe(t *testing.T) {
	sched, err := faultinject.ParseSchedule("seed=11; exchange every=7 p=0.4; reset at=40 times=2")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Devices:       []hunipu.Device{hunipu.DeviceIPU, hunipu.DeviceCPU},
		Workers:       2,
		Retries:       2,
		BrownoutTiers: []float64{0.05, 0.1},
		Inject:        map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: sched},
	})
	for i := 0; i < 30; i++ {
		costs := testCosts(10, int64(100+i))
		res, err := s.Submit(context.Background(), Request{Costs: costs, Quality: hunipu.Bounded(0.05)})
		if err != nil {
			var fe *faultinject.FaultError
			if errors.As(err, &fe) || errors.Is(err, ErrNoDevice) {
				continue
			}
			var che *hunipu.ChainError
			if errors.As(err, &che) {
				continue
			}
			t.Fatalf("request %d: untyped failure: %v", i, err)
		}
		if res.Quality.Epsilon() < 0.05 {
			t.Fatalf("request %d: served stricter than asked? %v", i, res.Quality)
		}
		if res.Gap > res.Quality.Epsilon() {
			t.Fatalf("request %d: gap %g exceeds served ε %g", i, res.Gap, res.Quality.Epsilon())
		}
		exact, err := hunipu.Solve(costs, hunipu.OnCPU())
		if err != nil {
			t.Fatal(err)
		}
		eps := res.Quality.Epsilon()
		if res.Cost-exact.Cost > eps*(1+exact.Cost)+1e-9 {
			t.Fatalf("request %d: uncertified bounded answer: cost %g vs optimum %g at ε=%g", i, res.Cost, exact.Cost, eps)
		}
	}
	if s.Metrics().BoundedSolves.Load() == 0 {
		t.Fatal("chaos run never served a bounded response")
	}
}
