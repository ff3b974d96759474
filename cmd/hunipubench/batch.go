package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"hunipu"
	"hunipu/internal/core"
	"hunipu/internal/poplar"
)

// batchSize and batchPool shape batch-exact-n128: one caller cycles a
// fixed pool of same-size instances. The pool is large enough that the
// median solve does not hinge on a few instances of the seed.
const (
	batchSize = 128
	batchPool = 64
)

// batchProcs is the GOMAXPROCS the batch caller runs at, which the
// engine's host parallelism defaults to. On the 2-vCPU machine the bounds
// were set on, the engine's fork-join over two goroutines per superstep
// made solves ~30% slower than one goroutine and tripled the spread
// between runs; one core measures the interpreter itself.
const batchProcs = 1

// firstPassSize is how many instances per shape the fixed first pass
// solves; modeled_us_per_op and the engine's counts average over them.
const firstPassSize = 16

// runBatch measures batch-exact-n128: the library called in-process by
// one closed-loop caller with default options (IPU, exact, guard off).
func runBatch(ctx context.Context, e *env) (*pass, []poplar.CSProfile, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(batchProcs))
	pool, err := makePool(ctx, e.seed, "batch", batchSize, batchPool)
	if err != nil {
		return nil, nil, err
	}
	p := &pass{}
	for i := 0; i < coldStarts; i++ {
		hunipu.ClearProgramCache()
		var o op
		solveOp(ctx, &pool[0], time.Now(), &o)
		if !o.certified {
			return nil, nil, fmt.Errorf("cold start: %s%s", o.violation, o.failure)
		}
		p.setup = append(p.setup, o.done)
		p.coldBuild = append(p.coldBuild, o.compileHost)
	}
	p.first = batchFirstPass(ctx, pool)
	p.main = batchWindow(ctx, pool, e.windowLength())
	if !e.trace {
		return p, nil, ctx.Err()
	}
	w := batchWindow(ctx, pool, e.windowLength())
	p.traced = &w
	// Profiling pins a compiled program to its solver, and SolveContext
	// makes a solver per call, so every profiled solve rebuilds its
	// program. One profiled solve after the windows keeps that cost out
	// of every timing.
	var o op
	res := solveOp(ctx, &pool[0], time.Now(), &o, hunipu.WithIPUOptions(core.Options{Profile: true}))
	if !o.certified {
		return nil, nil, fmt.Errorf("profiled solve: %s%s", o.violation, o.failure)
	}
	return p, res.Report.Attempts[len(res.Report.Attempts)-1].IPUDetail.Profile, ctx.Err()
}

// batchFirstPass solves the first firstPassSize pooled instances once.
func batchFirstPass(ctx context.Context, pool []instance, opts ...hunipu.Option) []op {
	start := time.Now()
	ops := make([]op, firstPassSize)
	for i := range ops {
		solveOp(ctx, &pool[i], start, &ops[i], opts...)
	}
	return ops
}

// batchWindow runs the closed loop for length and reads the process's
// memory and the program cache at the window's bounds.
func batchWindow(ctx context.Context, pool []instance, length time.Duration) window {
	var w window
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pc0 := hunipu.ProgramCacheSnapshot()
	start := time.Now()
	for i := 0; time.Since(start) < length && ctx.Err() == nil; i++ {
		w.ops = append(w.ops, op{})
		solveOp(ctx, &pool[i%len(pool)], start, &w.ops[len(w.ops)-1])
	}
	w.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	pc1 := hunipu.ProgramCacheSnapshot()
	w.heapSys = ms1.HeapSys
	w.gcCount = int64(ms1.NumGC - ms0.NumGC)
	w.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	w.mallocs = int64(ms1.Mallocs - ms0.Mallocs)
	w.cache = cacheDelta{pc1.Hits - pc0.Hits, pc1.Misses - pc0.Misses, pc1.Builds - pc0.Builds}
	return w
}

// solveOp makes one in-process solve of inst, certifies it, and records
// it as o, timed from start.
func solveOp(ctx context.Context, inst *instance, start time.Time, o *op, opts ...hunipu.Option) *hunipu.Result {
	o.sent = time.Since(start)
	o.due = o.sent
	res, err := hunipu.SolveContext(ctx, inst.costs, opts...)
	o.done = time.Since(start)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			o.failure = fmt.Sprintf("solve: %v", err)
		}
		return nil
	}
	o.status = 200
	o.wall, o.modeled, o.attempts = res.Wall, res.Modeled, len(res.Report.Attempts)
	for _, a := range res.Report.Attempts {
		o.attemptWall += a.Wall
	}
	if d := res.Report.Attempts[len(res.Report.Attempts)-1].IPUDetail; d != nil {
		o.compileHost, o.stats = d.CompileHost, d.Stats
	}
	o.recordAnswer(inst, res.Assignment, res.Cost, res.Gap, res.Quality.Epsilon())
	return res
}
