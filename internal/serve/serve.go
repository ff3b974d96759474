// Package serve is the concurrent solve front-end that turns the
// one-shot hunipu library into a service: a bounded admission queue
// with deadline-aware load shedding, a worker pool running each
// request through hunipu.SolveContext with full cancellation
// propagation, per-device circuit breakers layered on top of the
// reliability layer's degradation ladder, and graceful drain on
// shutdown. cmd/hunipud exposes it over HTTP.
//
// Pipeline per request:
//
//	Submit → admission (draining? deadline coverable? queue slot?) →
//	queue → worker → breaker routing (closed devices + one half-open
//	canary) → SolveContext(primary, WithFallback(rest...)) →
//	Report.Attempts feed breakers and the cost model → response.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hunipu"
	"hunipu/internal/faultinject"
)

// Request is one solve to admit.
type Request struct {
	// Costs is the cost matrix (see hunipu.Solve for semantics).
	Costs [][]float64
	// Maximize solves a maximisation problem.
	Maximize bool
	// Quality is the requested rung of the degradation ladder: Exact
	// (the zero value) or Bounded(ε). The brownout controller may
	// serve a *looser* tier than requested under pressure (see
	// Config.BrownoutTiers) — never a stricter one — and the response
	// reports the tier that actually served via Result.Quality/Gap.
	Quality hunipu.Quality
	// Key, when non-empty, names the client's solve stream: the duals
	// of each successful solve are cached under it and warm-start the
	// next same-shaped solve with the same key (tracking workloads
	// re-solve near-identical matrices every frame). Off by default;
	// the server keeps the duals of the 128 most recently used keys.
	Key string
}

// Config tunes a Server. The zero value is usable: ladder
// IPU→GPU→CPU, GOMAXPROCS workers (capped at 8), queue depth 64,
// default breakers, 50ns/cell cost-model seed.
type Config struct {
	// Devices is the degradation ladder in preference order. Empty
	// means IPU → GPU → CPU. Devices must be distinct.
	Devices []hunipu.Device
	// Workers is the solve pool size.
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds with
	// ErrOverloaded.
	QueueDepth int
	// Retries arms hunipu.WithRecovery on every solve.
	Retries int
	// Guard arms hunipu.WithGuard on every solve: silent-corruption
	// detection, certified rollback, and output attestation on the IPU
	// rungs of the ladder. The zero value leaves the guard to any
	// schedule-carried guard= clause (see hunipu.WithFaultSchedule);
	// detections surface in the guard_* expvar counters either way.
	// GuardSet forces the policy through even at GuardOff — the
	// explicit opt-out that disarms the sharded default (sharded
	// attempts otherwise run at GuardChecksums).
	Guard    hunipu.GuardPolicy
	GuardSet bool
	// Shards, when > 0, runs every IPU attempt on a fabric of that many
	// simulated chips (hunipu.WithShards): HunIPU over the multi-chip
	// tile space, modeled IPU-Link charging, and a move onto the
	// survivors when a chip is lost.
	// MinShardDevices is the smallest fabric a solve may continue on
	// after losses (hunipu.WithMinShardFabric; 0 means 1). Fabric events
	// surface in the shard_* expvar counters.
	Shards          int
	MinShardDevices int
	// Breaker tunes the per-device circuit breakers.
	Breaker BreakerConfig
	// SeedCostPerCell seeds the admission cost model (wall time per
	// matrix cell before any observation). 0 means 50ns.
	SeedCostPerCell time.Duration
	// Inject installs shared fault injectors per device
	// (hunipu.WithInjector): chaos testing and fault drills. Unlike
	// WithFaultSchedule these are NOT cloned per solve, so a
	// times-bounded schedule drains across requests.
	Inject map[hunipu.Device]faultinject.Injector
	// Now is the clock (tests inject a fake one). nil means time.Now.
	Now func() time.Time
	// BrownoutTiers arms the brownout controller: the ε ladder
	// (ascending, each finite and > 0) a request may be degraded along
	// instead of being shed. A request whose remaining deadline cannot
	// cover its requested tier's modeled cost is served at the
	// strictest listed tier that still fits (bounded solves terminate
	// early and are certified within their ε — see hunipu.WithQuality);
	// only when not even the loosest tier fits is it shed with
	// ErrDeadlineTooShort. A queue filled to brownoutQueueFraction
	// degrades exact requests to the first tier pre-emptively. Empty
	// disables brownouts: requests run exactly at their requested tier.
	BrownoutTiers []float64
}

// brownoutQueueFraction is the queue fill fraction at which the
// brownout controller degrades exact requests to BrownoutTiers[0] even
// with a comfortable deadline.
const brownoutQueueFraction = 0.75

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if len(c.Devices) == 0 {
		c.Devices = []hunipu.Device{hunipu.DeviceIPU, hunipu.DeviceGPU, hunipu.DeviceCPU}
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers > 8 {
			c.Workers = 8
		}
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.SeedCostPerCell == 0 {
		c.SeedCostPerCell = 50 * time.Nanosecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// item is one queued request.
type item struct {
	ctx  context.Context
	req  Request
	n    int          // the padded size admission priced: max(rows, cols)
	done chan outcome // buffered; the worker never blocks on it
}

// shape returns a request's row and column counts. hunipu pads a
// rows×cols matrix to a max(rows, cols) square, so that is the size
// every solve is priced and observed at; the warm cache keys on the
// shape itself.
func shape(costs [][]float64) (rows, cols int) {
	if len(costs) > 0 {
		cols = len(costs[0])
	}
	return len(costs), cols
}

type outcome struct {
	res *hunipu.Result
	err error
}

// Server is the serving layer. Create with New, feed with Submit,
// stop with Shutdown.
type Server struct {
	cfg      Config
	queue    chan *item
	breakers map[hunipu.Device]*breaker
	model    *costModel
	warm     *warmCache
	metrics  Metrics

	mu        sync.RWMutex // guards queue close vs Submit send
	draining  atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup

	// hardCtx cancels in-flight solves when the drain deadline passes.
	hardCtx    context.Context
	hardCancel context.CancelFunc
}

// New validates the configuration and starts the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 || cfg.QueueDepth < 0 || cfg.Retries < 0 {
		return nil, fmt.Errorf("serve: negative config field: %+v", cfg)
	}
	if err := cfg.Breaker.validate(); err != nil {
		return nil, err
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: Shards = %d, want ≥ 0", cfg.Shards)
	}
	if cfg.MinShardDevices < 0 || (cfg.MinShardDevices > 0 && cfg.Shards == 0) || cfg.MinShardDevices > cfg.Shards {
		return nil, fmt.Errorf("serve: MinShardDevices = %d with Shards = %d, want in [0, Shards] and Shards set", cfg.MinShardDevices, cfg.Shards)
	}
	for i, eps := range cfg.BrownoutTiers {
		if math.IsNaN(eps) || math.IsInf(eps, 0) || eps <= 0 {
			return nil, fmt.Errorf("serve: BrownoutTiers[%d] = %g, want finite > 0", i, eps)
		}
		if i > 0 && eps <= cfg.BrownoutTiers[i-1] {
			return nil, fmt.Errorf("serve: BrownoutTiers must be strictly ascending, got %v", cfg.BrownoutTiers)
		}
	}
	if len(cfg.BrownoutTiers) > 0 && cfg.Shards > 0 {
		return nil, fmt.Errorf("serve: BrownoutTiers do not compose with Shards (bounded quality is unsharded)")
	}
	seen := map[hunipu.Device]bool{}
	for _, d := range cfg.Devices {
		if d != hunipu.DeviceIPU && d != hunipu.DeviceGPU && d != hunipu.DeviceCPU {
			return nil, fmt.Errorf("serve: unknown device %v in ladder", d)
		}
		if seen[d] {
			return nil, fmt.Errorf("serve: device %v appears twice in ladder", d)
		}
		seen[d] = true
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *item, cfg.QueueDepth),
		breakers: make(map[hunipu.Device]*breaker),
		model:    newCostModel(cfg.SeedCostPerCell),
		warm:     newWarmCache(),
	}
	//hunipulint:ignore ctxflow server-lifetime root context; Stop calls hardCancel
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	for _, d := range cfg.Devices {
		d := d
		s.breakers[d] = newBreaker(cfg.Breaker, cfg.Now, func(_, to BreakerState) {
			s.metrics.observeBreaker(d, to)
		})
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics exposes the live counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Vars renders the server state for expvar publication.
func (s *Server) Vars() map[string]any {
	v := s.metrics.snapshot()
	states := map[string]string{}
	for _, d := range s.cfg.Devices {
		states[d.String()] = s.breakers[d].State().String()
	}
	v["breaker_state"] = states
	v["queue_depth"] = len(s.queue)
	v["draining"] = s.draining.Load()
	pc := hunipu.ProgramCacheSnapshot()
	v["progcache"] = map[string]int64{
		"hits":      pc.Hits,
		"misses":    pc.Misses,
		"evictions": pc.Evictions,
		"builds":    pc.Builds,
		"in_flight": pc.InFlight,
		"entries":   pc.Entries,
		"capacity":  pc.Capacity,
	}
	return v
}

// BreakerState reports one device's breaker position (BreakerClosed
// for devices outside the ladder).
func (s *Server) BreakerState(d hunipu.Device) BreakerState {
	if b, ok := s.breakers[d]; ok {
		return b.State()
	}
	return BreakerClosed
}

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

// Ready implements the readiness gate: not draining, and at least one
// device can still take traffic.
func (s *Server) Ready() bool {
	if s.draining.Load() {
		return false
	}
	for _, d := range s.cfg.Devices {
		if s.breakers[d].available() {
			return true
		}
	}
	return false
}

// firstAvailableEstimate is the modeled solve time, at the given
// quality tier, on the device the worker will try first: the first
// device in ladder order whose breaker admits traffic. Pricing any
// other device (say the cheapest) would admit requests on the estimate
// of a device that never serves them.
func (s *Server) firstAvailableEstimate(n int, bounded bool) (time.Duration, bool) {
	for _, d := range s.cfg.Devices {
		if s.breakers[d].available() {
			return s.model.Estimate(d, n, bounded), true
		}
	}
	return 0, false
}

// qualityLadder lists the tiers a request may be served at, strictest
// first: the requested tier, then every configured brownout tier
// looser than it. The controller never tightens a request's quality.
func (s *Server) qualityLadder(req hunipu.Quality) []hunipu.Quality {
	ladder := []hunipu.Quality{req}
	for _, eps := range s.cfg.BrownoutTiers {
		if !req.IsBounded() || eps > req.Epsilon() {
			ladder = append(ladder, hunipu.Bounded(eps))
		}
	}
	return ladder
}

// chooseQuality is the brownout controller's gate, run at dequeue time
// against the *remaining* deadline: it returns the strictest tier of
// the request's ladder whose modeled cost still fits. Queue pressure
// at brownoutQueueFraction skips the requested tier of an exact
// request (degrading it to the first brownout rung) even when the
// deadline is comfortable. ok is false when not even the loosest tier
// fits — the caller sheds with ErrDeadlineTooShort rather than burn a
// worker on an answer the client can never use.
func (s *Server) chooseQuality(req hunipu.Quality, n int, remaining time.Duration, hasDeadline bool) (hunipu.Quality, bool) {
	ladder := s.qualityLadder(req)
	start := 0
	if len(ladder) > 1 && !req.IsBounded() && s.underPressure() {
		start = 1
	}
	if !hasDeadline {
		return ladder[start], true
	}
	for _, q := range ladder[start:] {
		est, avail := s.firstAvailableEstimate(n, q.IsBounded() && q.Epsilon() > 0)
		if avail && est <= remaining {
			return q, true
		}
	}
	return hunipu.Quality{}, false
}

// underPressure reports whether the admission queue is filled to the
// brownout fraction.
func (s *Server) underPressure() bool {
	return float64(len(s.queue)) >= brownoutQueueFraction*float64(s.cfg.QueueDepth)
}

// Submit admits, queues, and executes one request, blocking until the
// result is ready, the request is shed, or ctx ends. A matrix that
// hunipu.ValidateCosts rejects fails first, with hunipu.ErrInvalidInput,
// before admission prices it or lets it hold a queue slot; it counts as
// Failed, not Admitted. Shedding is typed: ErrDraining,
// ErrDeadlineTooShort, ErrOverloaded, ErrNoDevice.
func (s *Server) Submit(ctx context.Context, req Request) (*hunipu.Result, error) {
	if err := hunipu.ValidateCosts(req.Costs); err != nil {
		s.metrics.Failed.Add(1)
		return nil, err
	}
	if s.draining.Load() {
		s.metrics.ShedDraining.Add(1)
		return nil, ErrDraining
	}
	rows, cols := shape(req.Costs)
	n := max(rows, cols)
	if deadline, ok := ctx.Deadline(); ok {
		// Arrival fast-path: shed only requests not even the *loosest*
		// admissible tier could serve in time. The binding check runs
		// again at dequeue against the remaining deadline (see process),
		// where the brownout controller picks the actual tier.
		remaining := deadline.Sub(s.cfg.Now())
		ladder := s.qualityLadder(req.Quality)
		loosest := ladder[len(ladder)-1]
		est, avail := s.firstAvailableEstimate(n, loosest.IsBounded() && loosest.Epsilon() > 0)
		if !avail {
			s.metrics.ShedNoDevice.Add(1)
			return nil, ErrNoDevice
		}
		if remaining < est {
			s.metrics.ShedDeadline.Add(1)
			return nil, fmt.Errorf("%w: %v remaining, %v modeled for n=%d", ErrDeadlineTooShort, remaining, est, n)
		}
	}
	it := &item{ctx: ctx, req: req, n: n, done: make(chan outcome, 1)}
	s.mu.RLock()
	if s.draining.Load() { // re-check under the lock that orders close
		s.mu.RUnlock()
		s.metrics.ShedDraining.Add(1)
		return nil, ErrDraining
	}
	select {
	case s.queue <- it:
		depth := int64(len(s.queue))
		s.mu.RUnlock()
		s.metrics.Admitted.Add(1)
		s.metrics.raiseHWM(depth)
	default:
		s.mu.RUnlock()
		s.metrics.ShedOverloaded.Add(1)
		return nil, ErrOverloaded
	}
	select {
	case out := <-it.done:
		return out.res, out.err
	case <-ctx.Done():
		// The worker (if it ever starts this item) sees the same ctx
		// and abandons promptly; the buffered done channel lets it
		// finish without a receiver.
		return nil, ctx.Err()
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for it := range s.queue {
		s.process(it)
	}
}

// pick is one breaker-approved rung of the ladder.
type pick struct {
	dev   hunipu.Device
	probe bool
}

// process runs one admitted request through the breaker-filtered
// degradation ladder.
func (s *Server) process(it *item) {
	s.metrics.InFlight.Add(1)
	defer s.metrics.InFlight.Add(-1)
	if err := it.ctx.Err(); err != nil {
		it.done <- outcome{nil, err}
		return
	}

	// The binding deadline gate runs here, at dequeue, against the
	// *remaining* deadline — queue wait has already eaten into it, so
	// the arrival-time check alone would happily start solves whose
	// answers can only arrive dead. The brownout controller widens ε
	// before giving up: shedding is the ladder's last rung, not its
	// first response to pressure.
	var remaining time.Duration
	deadline, hasDeadline := it.ctx.Deadline()
	if hasDeadline {
		remaining = deadline.Sub(s.cfg.Now())
	}
	quality, ok := s.chooseQuality(it.req.Quality, it.n, remaining, hasDeadline)
	if !ok {
		s.metrics.ShedDeadline.Add(1)
		it.done <- outcome{nil, fmt.Errorf("%w: %v remaining at dequeue for n=%d", ErrDeadlineTooShort, remaining, it.n)}
		return
	}
	if quality != it.req.Quality {
		s.metrics.Brownouts.Add(1)
	}

	var picks []pick
	for _, d := range s.cfg.Devices {
		if ok, probe := s.breakers[d].acquire(); ok {
			picks = append(picks, pick{d, probe})
		}
	}
	if len(picks) == 0 {
		s.metrics.ShedNoDevice.Add(1)
		it.done <- outcome{nil, ErrNoDevice}
		return
	}

	// Cancellation propagates from the caller's ctx and, past the
	// drain deadline, from hardCtx.
	ctx, cancel := context.WithCancel(it.ctx)
	defer cancel()
	stop := context.AfterFunc(s.hardCtx, cancel)
	defer stop()

	opts := []hunipu.Option{hunipu.OnDevice(picks[0].dev)}
	if len(picks) > 1 {
		rest := make([]hunipu.Device, 0, len(picks)-1)
		for _, p := range picks[1:] {
			rest = append(rest, p.dev)
		}
		opts = append(opts, hunipu.WithFallback(rest...))
	}
	if s.cfg.Retries > 0 {
		opts = append(opts, hunipu.WithRecovery(s.cfg.Retries))
	}
	if s.cfg.GuardSet || s.cfg.Guard != hunipu.GuardOff {
		opts = append(opts, hunipu.WithGuard(s.cfg.Guard))
	}
	if s.cfg.Shards > 0 && !(quality.IsBounded() && quality.Epsilon() > 0) {
		// Bounded quality is unsharded (hunipu rejects the combination);
		// a bounded request on a sharded server runs single-device.
		opts = append(opts, hunipu.WithShards(s.cfg.Shards))
		if s.cfg.MinShardDevices > 0 {
			opts = append(opts, hunipu.WithMinShardFabric(s.cfg.MinShardDevices))
		}
	}
	opts = append(opts, injectorOpts(s.cfg.Inject)...)
	if it.req.Maximize {
		opts = append(opts, hunipu.Maximize())
	}
	if quality.IsBounded() {
		opts = append(opts, hunipu.WithQuality(quality))
	}
	rows, cols := shape(it.req.Costs)
	if prior := s.warm.get(it.req.Key, rows, cols); prior != nil {
		opts = append(opts, hunipu.WithWarmStart(prior.U, prior.V))
		s.metrics.WarmStarts.Add(1)
	}

	res, err := hunipu.SolveContext(ctx, it.req.Costs, opts...)
	if err == nil && res.Duals != nil {
		s.warm.put(it.req.Key, rows, cols, res.Duals)
	}
	s.settle(picks, it.n, res, err)
	it.done <- outcome{res, err}
}

// settle feeds the solve's per-attempt outcomes back into the
// breakers and the cost model. Devices the ladder never reached
// release their canary claim; cancellations blame no device.
func (s *Server) settle(picks []pick, n int, res *hunipu.Result, err error) {
	var report *hunipu.Report
	if res != nil {
		report = res.Report
	} else {
		var ce *hunipu.ChainError
		if errors.As(err, &ce) {
			report = ce.Report
		}
	}
	attempts := map[hunipu.Device]hunipu.Attempt{}
	if report != nil {
		for _, a := range report.Attempts {
			attempts[a.Device] = a
			// Fabric telemetry: sharded attempts report lost chips and
			// re-shardings whether or not the attempt served.
			if f := a.ShardDetail; f != nil {
				s.metrics.ShardSolves.Add(1)
				s.metrics.DevicesLost.Add(int64(len(f.Lost)))
				s.metrics.Reshards.Add(int64(f.Reshards))
				s.metrics.ShardRollbacks.Add(int64(a.Retries))
				s.metrics.Quarantined.Add(int64(len(f.Quarantined)))
			}
			// Guard telemetry: an attempt's recovery report counts every
			// detection, the terminal one of a failed attempt included.
			s.metrics.GuardTrips.Add(int64(a.GuardTrips))
			s.metrics.RollbackEpochs.Add(int64(a.RollbackEpochs))
			if ce, ok := faultinject.AsCorruption(a.Err); ok && ce.Guard == "attestation" {
				s.metrics.AttestationFailures.Add(1)
			}
		}
	}
	for _, p := range picks {
		att, tried := attempts[p.dev]
		switch {
		case !tried:
			s.breakers[p.dev].release(p.probe)
		case att.Err == nil:
			s.breakers[p.dev].record(p.probe, false)
			s.metrics.Served[devIdx(p.dev)].Add(1)
			bounded := att.Quality.IsBounded() && att.Quality.Epsilon() > 0
			s.model.Observe(p.dev, n, att.Wall, bounded)
			if bounded {
				s.metrics.BoundedSolves.Add(1)
				s.metrics.GapSumMicros.Add(int64(att.Gap * 1e6))
			}
		case errors.Is(att.Err, context.Canceled) || errors.Is(att.Err, context.DeadlineExceeded):
			// The caller walked away (or drain cancelled us): not the
			// device's fault.
			s.breakers[p.dev].release(p.probe)
		default:
			s.breakers[p.dev].record(p.probe, true)
		}
	}
	if err != nil {
		s.metrics.Failed.Add(1)
	}
}

// BeginDrain flips the server not-ready and stops admission without
// touching in-flight work. Shutdown calls it; a front-end may call it
// earlier to fail its readiness probe before connections stop.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains gracefully: stop admitting, let queued and
// in-flight solves finish, and — only once ctx expires — cancel
// whatever is still running. It returns nil when every admitted
// request completed normally, or an error describing the forced
// cancellation.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.closeOnce.Do(func() {
		s.mu.Lock()
		close(s.queue)
		s.mu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.hardCancel()
		return nil
	case <-ctx.Done():
	}
	// Drain deadline passed: cancel in-flight solves (every device
	// checks its context at superstep/kernel/augment granularity) and
	// give them a moment to unwind.
	s.hardCancel()
	select {
	case <-done:
		return fmt.Errorf("serve: drain deadline exceeded, in-flight solves cancelled")
	case <-time.After(10 * time.Second):
		return fmt.Errorf("serve: workers failed to exit after cancellation")
	}
}

// injectorOpts expands the per-device injector map into solver options
// in ascending device order, so the option list — and therefore the
// solve path taken under fault injection — is identical across runs.
func injectorOpts(inject map[hunipu.Device]faultinject.Injector) []hunipu.Option {
	devs := sortedInjectorDevices(inject)
	opts := make([]hunipu.Option, 0, len(devs))
	for _, d := range devs {
		opts = append(opts, hunipu.WithInjector(d, inject[d]))
	}
	return opts
}

// sortedInjectorDevices returns the injector map's keys in ascending
// device order (the deterministic iteration the dispatcher relies on).
func sortedInjectorDevices(inject map[hunipu.Device]faultinject.Injector) []hunipu.Device {
	devs := make([]hunipu.Device, 0, len(inject))
	for d := range inject {
		devs = append(devs, d)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	return devs
}
