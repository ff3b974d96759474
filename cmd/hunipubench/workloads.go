package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"hunipu/internal/poplar"
)

// workload is one named traffic mix.
type workload struct {
	name, why string
	run       func(ctx context.Context, e *env) (*pass, []poplar.CSProfile, error)
}

// workloads lists every workload in the order a full run measures them.
// BENCHMARK.json lists the same names and reasons.
var workloads = []workload{
	{
		name: "batch-exact-n128",
		why:  "the paper's repeated same-shape use: one in-process caller, exact IPU solves of n=128; the engine is nearly all of the time",
		run: func(ctx context.Context, e *env) (*pass, []poplar.CSProfile, error) {
			return runBatch(ctx, e)
		},
	},
	{
		name: "stream-bounded-n128",
		why:  "two tracking clients re-solve drifting n=128 frames at bounded(0.05): auction path, per-key dual warm starts, large bodies",
		run: func(ctx context.Context, e *env) (*pass, []poplar.CSProfile, error) {
			wl, err := newStreamLoad(ctx, e.seed)
			if err != nil {
				return nil, nil, err
			}
			p, err := runServed(ctx, e, wl)
			return p, nil, err
		},
	},
	{
		name: "serve-steady-mix",
		why:  "open-loop exact traffic at 10 req/s, mostly n=64 with some n=32 and n=128, 1 s deadline, well below capacity: HTTP, serve and cached shapes",
		run: func(ctx context.Context, e *env) (*pass, []poplar.CSProfile, error) {
			wl, err := newMixLoad(ctx, e.seed, steadyMix, 10, time.Second, 0)
			if err != nil {
				return nil, nil, err
			}
			p, err := runServed(ctx, e, wl)
			return p, nil, err
		},
	},
	{
		name: "serve-overload-mix",
		why:  "the same sizes, more of them small, at 150 req/s with a 200 ms budget per request, beyond exact capacity: the exact-bounded-shed ladder and cost-model gate decide",
		run: func(ctx context.Context, e *env) (*pass, []poplar.CSProfile, error) {
			wl, err := newMixLoad(ctx, e.seed, overloadMix, 150, 0, 200*time.Millisecond)
			if err != nil {
				return nil, nil, err
			}
			p, err := runServed(ctx, e, wl)
			return p, nil, err
		},
	},
}

// steadyMix is the size mix of serve-steady-mix. Latencies cluster by
// size, so each percentile is placed inside a cluster, where it is
// steadiest: p50 near the middle of the n=64 share and p95 at the median
// of the n=128 share. A percentile at a cluster's edge jumps between
// shapes, and one high in the n=128 share follows how many requests
// happened to overlap the slowest solves.
var steadyMix = mix{sizes: []int{32, 64, 128}, weights: []float64{0.2, 0.7, 0.1}, pool: 64}

// overloadMix is the size mix of serve-overload-mix. Over capacity,
// goodput comes mostly from the small requests that fit their budget.
// Under steadyMix's weights it fell to 40% of this mix's and swung
// nearly twice as much from run to run.
var overloadMix = mix{sizes: []int{32, 64, 128}, weights: []float64{0.4, 0.45, 0.15}, pool: 64}

// mixLoad is an open loop over a size mix. Each request either carries a
// fixed deadline from when it is sent, or has a budget from when it was
// due and carries what is left of it.
type mixLoad struct {
	seed     int64
	mix      mix
	rate     float64
	deadline time.Duration
	budget   time.Duration
	pools    [][]instance
	costs    [][][]byte // each pooled instance's costs, JSON-encoded once
}

func newMixLoad(ctx context.Context, seed int64, m mix, rate float64, deadline, budget time.Duration) (*mixLoad, error) {
	l := &mixLoad{seed: seed, mix: m, rate: rate, deadline: deadline, budget: budget}
	for _, n := range m.sizes {
		pool, err := makePool(ctx, seed, fmt.Sprintf("mix%d", n), n, m.pool)
		if err != nil {
			return nil, err
		}
		enc := make([][]byte, len(pool))
		for i := range pool {
			enc[i] = appendCosts(nil, pool[i].costs)
		}
		l.pools = append(l.pools, pool)
		l.costs = append(l.costs, enc)
	}
	return l, nil
}

func (l *mixLoad) probes() []probe {
	out := make([]probe, len(l.pools))
	for k := range l.pools {
		out[k] = probe{inst: l.pools[k][0], body: solveBody(l.costs[k][0], 0, "", "")}
	}
	return out
}

// firstPass sends the first firstPassSize instances of each size once,
// exact and without a deadline, over the two connections.
func (l *mixLoad) firstPass(ctx context.Context, d *daemon, c *http.Client) []op {
	var sched []arrival
	for k := range l.pools {
		for i := 0; i < firstPassSize; i++ {
			sched = append(sched, arrival{size: k, inst: i})
		}
	}
	ops, _ := openLoop(ctx, sched, func(a arrival, o *op, start time.Time) {
		o.sent = time.Since(start)
		status, ans, err := d.post(ctx, c, solveBody(l.costs[a.size][a.inst], 0, "", ""))
		o.done = time.Since(start)
		o.recordServed(&l.pools[a.size][a.inst], status, ans, err)
	})
	return ops
}

func (l *mixLoad) load(ctx context.Context, d *daemon, c *http.Client, tag string, length time.Duration) ([]op, time.Duration) {
	sched := openSchedule(l.seed, tag, l.rate, length, l.mix)
	return openLoop(ctx, sched, func(a arrival, o *op, start time.Time) {
		now := time.Since(start)
		limit := now + l.deadline
		if l.budget > 0 {
			limit = a.due + l.budget
		}
		deadlineMS := int64((limit - now) / time.Millisecond)
		if deadlineMS < 1 {
			o.expired = true
			return
		}
		body := solveBody(l.costs[a.size][a.inst], deadlineMS, "", "")
		o.sent = time.Since(start)
		status, ans, err := d.post(ctx, c, body)
		o.done = time.Since(start)
		o.recordServed(&l.pools[a.size][a.inst], status, ans, err)
		o.late = o.done > limit
	})
}

func (l *mixLoad) certifyLater(context.Context, ...[]op) error { return nil }

// Stream workload shape: two keyed clients, each re-solving its own
// drifting n=128 matrix; the fixed first pass is each stream's first
// streamFirstPass frames.
const (
	streamSize      = 128
	streamCount     = 2
	streamFirstPass = 100
	streamQuality   = "bounded(0.05)"
)

// streamLoad is the closed loop of the tracking clients. Its frame
// generators continue across the first pass and the windows.
type streamLoad struct {
	seed    int64
	streams []*frames
	probe   probe
}

func newStreamLoad(ctx context.Context, seed int64) (*streamLoad, error) {
	l := &streamLoad{seed: seed}
	for k := 0; k < streamCount; k++ {
		f, err := newFrames(seed, k, streamSize)
		if err != nil {
			return nil, err
		}
		l.streams = append(l.streams, f)
	}
	// The cold-start probe is a copy of stream 0's first frame, sent
	// without a key so no stream's dual cache is touched.
	costs := make([][]float64, streamSize)
	for i, row := range l.streams[0].cur {
		costs[i] = append([]float64(nil), row...)
	}
	opt, err := optimum(ctx, costs)
	if err != nil {
		return nil, err
	}
	l.probe = probe{inst: instance{costs: costs, opt: opt}, body: solveBody(appendCosts(nil, costs), 0, streamQuality, "")}
	return l, nil
}

func (l *streamLoad) probes() []probe { return []probe{l.probe} }

func (l *streamLoad) firstPass(ctx context.Context, d *daemon, c *http.Client) []op {
	ops, _ := l.run(ctx, d, c, streamFirstPass, 0)
	return ops
}

func (l *streamLoad) load(ctx context.Context, d *daemon, c *http.Client, _ string, length time.Duration) ([]op, time.Duration) {
	return l.run(ctx, d, c, 0, length)
}

// run sends frames from every stream in its own closed loop: count
// frames each, or as many as fit in length when count is 0.
func (l *streamLoad) run(ctx context.Context, d *daemon, c *http.Client, count int, length time.Duration) ([]op, time.Duration) {
	start := time.Now()
	per := make([][]op, len(l.streams))
	var wg sync.WaitGroup
	for k, f := range l.streams {
		wg.Add(1)
		go func(k int, f *frames) {
			defer wg.Done()
			key := fmt.Sprintf("stream-%d", k)
			var buf []byte
			for sent := 0; ctx.Err() == nil; sent++ {
				if count > 0 && sent == count || count == 0 && time.Since(start) >= length {
					return
				}
				costs, frame, err := f.next()
				o := op{stream: k, frame: frame}
				if err != nil {
					o.failure = err.Error()
					per[k] = append(per[k], o)
					return
				}
				buf = appendCosts(buf[:0], costs)
				body := solveBody(buf, 0, streamQuality, key)
				o.sent = time.Since(start)
				o.due = o.sent
				status, ans, err := d.post(ctx, c, body)
				o.done = time.Since(start)
				o.recordServed(nil, status, ans, err)
				per[k] = append(per[k], o)
				if o.failure != "" {
					return
				}
			}
		}(k, f)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops []op
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops, elapsed
}

// certifyLater regenerates each stream's frames and certifies every
// kept answer against the frame's reference optimum.
func (l *streamLoad) certifyLater(ctx context.Context, opss ...[]op) error {
	byStream := make([][]*op, streamCount)
	for _, ops := range opss {
		for i := range ops {
			if o := &ops[i]; o.assignment != nil {
				byStream[o.stream] = append(byStream[o.stream], o)
			}
		}
	}
	errs := make([]error, streamCount) // one per stream goroutine
	var wg sync.WaitGroup
	for k := range byStream {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			kept := byStream[k]
			sort.Slice(kept, func(i, j int) bool { return kept[i].frame < kept[j].frame })
			f, err := newFrames(l.seed, k, streamSize)
			if err != nil {
				errs[k] = err
				return
			}
			var costs [][]float64
			for _, o := range kept {
				for f.index < o.frame {
					if costs, _, err = f.next(); err != nil {
						errs[k] = err
						return
					}
				}
				opt, err := optimum(ctx, costs)
				if err != nil {
					errs[k] = err
					return
				}
				o.recordAnswer(&instance{costs: costs, opt: opt}, o.assignment, o.cost, o.gap, o.eps)
				o.assignment = nil
			}
		}(k)
	}
	wg.Wait()
	return errors.Join(errs...)
}
