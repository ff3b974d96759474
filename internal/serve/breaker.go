package serve

import (
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// The breaker states.
const (
	// BreakerClosed: the device is healthy and takes traffic.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the device is sick; traffic routes around it until
	// the open window elapses.
	BreakerOpen
	// BreakerHalfOpen: the open window elapsed; exactly one canary
	// solve probes the device while everyone else still routes around.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// BreakerConfig tunes the per-device circuit breakers.
type BreakerConfig struct {
	// Window is how many recent outcomes each breaker remembers.
	// 0 means 8.
	Window int
	// Failures trips the breaker when at least this many of the
	// windowed outcomes are failed attempts. 0 means 4.
	Failures int
	// OpenFor is how long a tripped breaker routes around its device
	// before half-opening for a canary probe. 0 means 2s.
	OpenFor time.Duration
}

// withDefaults resolves zero fields.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window == 0 {
		c.Window = 8
	}
	if c.Failures == 0 {
		c.Failures = 4
	}
	if c.OpenFor == 0 {
		c.OpenFor = 2 * time.Second
	}
	return c
}

// validate rejects unusable configurations.
func (c BreakerConfig) validate() error {
	if c.Window < 0 || c.Failures < 0 || c.OpenFor < 0 {
		return fmt.Errorf("serve: breaker config %+v: negative field", c)
	}
	if c.Failures > c.Window {
		return fmt.Errorf("serve: breaker Failures = %d > Window = %d can never trip", c.Failures, c.Window)
	}
	return nil
}

// breaker is one device's circuit breaker: a count-based sliding
// window of outcomes in the closed state, a timed open state, and a
// single-canary half-open state. All methods are safe for concurrent
// use.
type breaker struct {
	cfg      BreakerConfig
	now      func() time.Time
	onChange func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	window   []bool // ring buffer, true = failure
	size     int    // filled entries
	next     int    // ring write index
	fails    int    // failures currently in the window
	openedAt time.Time
	probing  bool // a canary is in flight (half-open)
}

func newBreaker(cfg BreakerConfig, now func() time.Time, onChange func(from, to BreakerState)) *breaker {
	return &breaker{
		cfg:      cfg,
		now:      now,
		onChange: onChange,
		window:   make([]bool, cfg.Window),
	}
}

// transition moves the state machine. The caller holds b.mu and must
// invoke the returned announcement (if non-nil) only after releasing
// it: the change hook is supplied by the breaker's owner (the
// server's metrics recorder), and a hook that re-enters the breaker —
// State() from a readiness probe is the obvious case — would
// self-deadlock if fired under the lock. Announcements may interleave
// across racing transitions; the hook receives (from, to) pairs, not a
// serialized history.
func (b *breaker) transition(to BreakerState) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	if b.onChange == nil {
		return nil
	}
	onChange := b.onChange
	return func() { onChange(from, to) }
}

// fire runs a deferred transition announcement outside the lock.
func fire(announce func()) {
	if announce != nil {
		announce()
	}
}

// resetWindow clears the outcome history. The caller holds b.mu.
func (b *breaker) resetWindow() {
	for i := range b.window {
		b.window[i] = false
	}
	b.size, b.next, b.fails = 0, 0, 0
}

// State returns the current state, promoting an elapsed open window
// to half-open so observers (readiness, metrics) see probe
// eligibility without waiting for traffic.
func (b *breaker) State() BreakerState {
	now := b.now()
	b.mu.Lock()
	var announce func()
	if b.state == BreakerOpen && now.Sub(b.openedAt) >= b.cfg.OpenFor {
		announce = b.transition(BreakerHalfOpen)
	}
	s := b.state
	b.mu.Unlock()
	fire(announce)
	return s
}

// acquire asks to route one request through the device. ok reports
// whether the device may be tried; probe is true when this request is
// the half-open canary (the caller must later call either record or,
// if the attempt never ran, release).
func (b *breaker) acquire() (ok, probe bool) {
	now := b.now()
	b.mu.Lock()
	var announce func()
	switch b.state {
	case BreakerClosed:
		ok = true
	case BreakerOpen, BreakerHalfOpen:
		if b.state == BreakerOpen {
			if now.Sub(b.openedAt) < b.cfg.OpenFor {
				break
			}
			announce = b.transition(BreakerHalfOpen)
		}
		if !b.probing {
			b.probing = true
			ok, probe = true, true
		}
	}
	b.mu.Unlock()
	fire(announce)
	return ok, probe
}

// available reports whether acquire could currently succeed — used by
// admission to price the first device in ladder order that will take
// the request, without claiming the canary slot.
func (b *breaker) available() bool {
	now := b.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return now.Sub(b.openedAt) >= b.cfg.OpenFor
	case BreakerHalfOpen:
		return !b.probing
	}
	return false
}

// release returns an unexecuted canary slot (the request was served by
// an earlier device in the ladder, or cancelled before the attempt).
func (b *breaker) release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// record feeds one attempt outcome into the state machine.
func (b *breaker) record(probe, failure bool) {
	now := b.now()
	b.mu.Lock()
	var announce func()
	if probe {
		b.probing = false
		if failure {
			// The canary died: back to a full open window.
			b.openedAt = now
			announce = b.transition(BreakerOpen)
		} else {
			b.resetWindow()
			announce = b.transition(BreakerClosed)
		}
		b.mu.Unlock()
		fire(announce)
		return
	}
	if b.state != BreakerClosed {
		// A straggler that routed before the trip; its outcome already
		// told us nothing new.
		b.mu.Unlock()
		return
	}
	if b.size == len(b.window) { // evict the oldest outcome
		if b.window[b.next] {
			b.fails--
		}
	} else {
		b.size++
	}
	b.window[b.next] = failure
	if failure {
		b.fails++
	}
	b.next = (b.next + 1) % len(b.window)
	if b.fails >= b.cfg.Failures {
		b.resetWindow()
		b.openedAt = now
		announce = b.transition(BreakerOpen)
	}
	b.mu.Unlock()
	fire(announce)
}
