package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hunipu"
	"hunipu/internal/faultinject"
)

// testCosts draws a deterministic dense n×n instance.
func testCosts(n int, seed int64) [][]float64 { return testRectCosts(n, n, seed) }

// testRectCosts draws a deterministic dense rows×cols instance.
func testRectCosts(rows, cols int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	costs := make([][]float64, rows)
	for i := range costs {
		costs[i] = make([]float64, cols)
		for j := range costs[i] {
			costs[i][j] = float64(rng.Intn(1000))
		}
	}
	return costs
}

// gate is an injector that blocks every IPU superstep until released —
// a deterministic way to hold a solve in flight. It never faults.
type gate struct {
	once    sync.Once
	blocked chan struct{} // closed when the first solve reaches the gate
	release chan struct{} // close to let solves run
}

func newGate() *gate {
	return &gate{blocked: make(chan struct{}), release: make(chan struct{})}
}

func (g *gate) Check(p faultinject.Point) *faultinject.FaultError {
	if p.Kind != faultinject.KindSuperstep {
		return nil
	}
	g.once.Do(func() { close(g.blocked) })
	<-g.release
	return nil
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

func TestSubmitServesCorrectAnswer(t *testing.T) {
	costs := testCosts(16, 1)
	want, err := hunipu.Solve(costs)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 2})
	res, err := s.Submit(context.Background(), Request{Costs: costs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.Cost {
		t.Fatalf("served cost = %g, want %g", res.Cost, want.Cost)
	}
	if res.Device != hunipu.DeviceIPU {
		t.Fatalf("served device = %v, want IPU", res.Device)
	}
	m := s.Metrics()
	if m.Admitted.Load() != 1 || m.Served[0].Load() != 1 {
		t.Fatalf("metrics admitted=%d served[IPU]=%d, want 1/1", m.Admitted.Load(), m.Served[0].Load())
	}
}

func TestSubmitMaximize(t *testing.T) {
	costs := testCosts(8, 2)
	want, err := hunipu.Solve(costs, hunipu.Maximize())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1})
	res, err := s.Submit(context.Background(), Request{Costs: costs, Maximize: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != want.Cost {
		t.Fatalf("maximise cost = %g, want %g", res.Cost, want.Cost)
	}
}

// TestShedOverloaded: with one worker held at the gate and a
// single-slot queue, the third request must be shed immediately with
// ErrOverloaded — admission never blocks the caller.
func TestShedOverloaded(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Devices:    []hunipu.Device{hunipu.DeviceIPU},
		Inject:     map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: g},
	})
	costs := testCosts(8, 3)
	results := make(chan error, 2)
	submit := func() {
		_, err := s.Submit(context.Background(), Request{Costs: costs})
		results <- err
	}
	go submit() // occupies the worker
	<-g.blocked
	go submit() // occupies the queue slot
	// Wait until the second request is actually queued.
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	_, err := s.Submit(context.Background(), Request{Costs: costs})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("shed took %v, admission must not block", elapsed)
	}
	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("held request %d failed: %v", i, err)
		}
	}
	m := s.Metrics()
	if m.ShedOverloaded.Load() != 1 {
		t.Fatalf("ShedOverloaded = %d, want 1", m.ShedOverloaded.Load())
	}
	if m.QueueHWM.Load() < 1 {
		t.Fatalf("QueueHWM = %d, want ≥ 1", m.QueueHWM.Load())
	}
}

// TestShedDeadlineTooShort: a deadline the modeled solve cost cannot
// meet is rejected up front, before consuming a queue slot.
func TestShedDeadlineTooShort(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:         1,
		SeedCostPerCell: time.Millisecond, // n=16 → modeled 256ms
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Submit(ctx, Request{Costs: testCosts(16, 4)})
	if !errors.Is(err, ErrDeadlineTooShort) {
		t.Fatalf("err = %v, want ErrDeadlineTooShort", err)
	}
	if got := s.Metrics().ShedDeadline.Load(); got != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", got)
	}
	// A generous deadline sails through.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	if _, err := s.Submit(ctx2, Request{Costs: testCosts(16, 4)}); err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
}

// TestCostModelLearnsFromTraffic: after serving real solves the
// model's estimate reflects observed wall time rather than the seed.
func TestCostModelLearnsFromTraffic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, SeedCostPerCell: time.Millisecond})
	costs := testCosts(16, 5)
	seeded := s.model.Estimate(hunipu.DeviceIPU, 16, false)
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(context.Background(), Request{Costs: costs}); err != nil {
			t.Fatal(err)
		}
	}
	learned := s.model.Estimate(hunipu.DeviceIPU, 16, false)
	if learned == seeded {
		t.Fatalf("estimate unchanged after 3 observations: %v", learned)
	}
}

// TestRectangularRequestPricedPadded: hunipu solves a rows×cols matrix
// padded to a max(rows, cols) square, so admission must price it, and
// the cost model learn from it, at that size rather than its row count.
func TestRectangularRequestPricedPadded(t *testing.T) {
	s := newTestServer(t, Config{
		Devices:         []hunipu.Device{hunipu.DeviceCPU},
		Workers:         1,
		SeedCostPerCell: time.Millisecond, // n=16 → 256ms, n=64 → 4.1s
	})
	// A 2×16 request is a 16×16 solve: a 10ms deadline cannot cover it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.Submit(ctx, Request{Costs: testRectCosts(2, 16, 1)}); !errors.Is(err, ErrDeadlineTooShort) {
		t.Fatalf("2×16 with 10ms: err = %v, want ErrDeadlineTooShort", err)
	}
	// Five 2×64 solves are observed at n=64: the n=64 estimate becomes
	// a weighted mean of their walls instead of 64²/2² = 1024 times one.
	var slowest time.Duration
	for seed := int64(1); seed <= 5; seed++ {
		res, err := s.Submit(context.Background(), Request{Costs: testRectCosts(2, 64, seed)})
		if err != nil {
			t.Fatal(err)
		}
		slowest = max(slowest, res.Report.Attempts[len(res.Report.Attempts)-1].Wall)
	}
	if est := s.model.Estimate(hunipu.DeviceCPU, 64, false); est > slowest {
		t.Fatalf("n=64 estimate %v after 2×64 solves, slowest of them took %v", est, slowest)
	}
}

// TestInvalidInputRefusedBeforeAdmission: a matrix no solver accepts
// fails with hunipu.ErrInvalidInput, counted as Failed, before
// admission prices it or queues it. At a 50ms deadline a 2000-row
// ragged body and one whose first row is 2000 wide would otherwise be
// priced at 2000² cells and shed as too slow; a NaN body without a
// deadline would hold a queue slot and a worker until the solve
// rejected it.
func TestInvalidInputRefusedBeforeAdmission(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1}) // 50ns/cell: n=2000 → 200ms
	tall := make([][]float64, 2000)
	for i := range tall {
		tall[i] = []float64{1}
	}
	tall[len(tall)-1] = []float64{1, 2}
	wide := [][]float64{make([]float64, 2000), {1}}
	nan := testCosts(4, 1)
	nan[2][3] = math.NaN()
	submit := func(costs [][]float64, deadline time.Duration) error {
		ctx := context.Background()
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		_, err := s.Submit(ctx, Request{Costs: costs})
		return err
	}
	for _, tc := range []struct {
		name     string
		costs    [][]float64
		deadline time.Duration
	}{
		{"2000-row ragged", tall, 50 * time.Millisecond},
		{"2000-wide first row", wide, 50 * time.Millisecond},
		{"NaN entry", nan, 0},
	} {
		if err := submit(tc.costs, tc.deadline); !errors.Is(err, hunipu.ErrInvalidInput) {
			t.Errorf("%s: err = %v, want hunipu.ErrInvalidInput", tc.name, err)
		}
	}
	m := s.Metrics()
	if a, d := m.Admitted.Load(), m.ShedDeadline.Load(); a != 0 || d != 0 {
		t.Fatalf("Admitted %d, ShedDeadline %d; want both 0", a, d)
	}
	if f := m.Failed.Load(); f != 3 {
		t.Fatalf("Failed %d, want 3: each refusal is counted", f)
	}
}

// TestDrainRejectsNewFinishesInFlight: Shutdown stops admission,
// completes queued and in-flight work, and returns nil.
func TestDrainRejectsNewFinishesInFlight(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{
		Workers: 1,
		Devices: []hunipu.Device{hunipu.DeviceIPU},
		Inject:  map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: g},
	})
	costs := testCosts(8, 6)
	inFlight := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Costs: costs})
		inFlight <- err
	}()
	<-g.blocked

	s.BeginDrain()
	if s.Ready() {
		t.Fatal("Ready() = true while draining")
	}
	if _, err := s.Submit(context.Background(), Request{Costs: costs}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// The in-flight solve is still at the gate; release it and the
	// drain must complete cleanly with the client served.
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	if err := <-inFlight; err != nil {
		t.Fatalf("in-flight request dropped during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
	if got := s.Metrics().ShedDraining.Load(); got != 1 {
		t.Fatalf("ShedDraining = %d, want 1", got)
	}
}

// TestDrainDeadlineCancelsInFlight: when the drain deadline passes,
// in-flight solves are cancelled rather than leaked, and Shutdown
// reports the forced drain.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	g := newGate()
	s, err := New(Config{
		Workers: 1,
		Devices: []hunipu.Device{hunipu.DeviceIPU},
		Inject:  map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: g},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Costs: testCosts(8, 7)})
		sub <- err
	}()
	<-g.blocked
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // drain deadline already passed
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctx) }()
	// The solve is stuck at the gate; the forced cancellation lands at
	// the next superstep check once released.
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	if err := <-sub; !errors.Is(err, context.Canceled) {
		t.Fatalf("in-flight err = %v, want context.Canceled from forced drain", err)
	}
	if err := <-shutdownDone; err == nil {
		t.Fatal("Shutdown = nil, want forced-drain error")
	}
}

// TestSubmitCancelledWhileQueued: a caller that gives up while queued
// gets its ctx error and the worker abandons the item.
func TestSubmitCancelledWhileQueued(t *testing.T) {
	g := newGate()
	s := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 4,
		Devices:    []hunipu.Device{hunipu.DeviceIPU},
		Inject:     map[hunipu.Device]faultinject.Injector{hunipu.DeviceIPU: g},
	})
	costs := testCosts(8, 8)
	first := make(chan error, 1)
	go func() {
		_, err := s.Submit(context.Background(), Request{Costs: costs})
		first <- err
	}()
	<-g.blocked
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, Request{Costs: costs})
		queued <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued submit err = %v, want context.Canceled", err)
	}
	close(g.release)
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Devices: []hunipu.Device{hunipu.Device(9)}},
		{Devices: []hunipu.Device{hunipu.DeviceCPU, hunipu.DeviceCPU}},
		{Retries: -1},
		{Breaker: BreakerConfig{Window: 2, Failures: 5}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
