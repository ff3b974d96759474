package poplar

import (
	"context"
	"errors"
	"testing"
	"time"

	"hunipu/internal/faultinject"
)

// newCountdown builds a deliberately non-idempotent looped program:
// each tick does acc += counter; counter--; pred = counter > 0. Naive
// restart-from-scratch after a mid-run fault would double-count into
// acc, so an exact final sum proves checkpoint restore + positional
// replay actually work.
func newCountdown() (g *Graph, counter, acc, pred *Tensor, prog Program) {
	g = NewGraph(smallCfg())
	counter = g.AddVariable("counter", Float, 1)
	acc = g.AddVariable("acc", Float, 1)
	pred = g.AddVariable("pred", Float, 1)
	for _, t := range []*Tensor{counter, acc, pred} {
		g.SetTileMapping(t, 0, 0, 1)
	}
	cs := g.AddComputeSet("tick")
	cr, ar, pr := counter.All(), acc.All(), pred.All()
	cs.AddVertex(0, func(w *Worker) {
		c, a, p := cr.Data(), ar.Data(), pr.Data()
		a[0] += c[0]
		c[0]--
		if c[0] > 0 {
			p[0] = 1
		} else {
			p[0] = 0
		}
		w.ChargeVec(1)
	}).Reads(cr).Writes(cr, ar, pr)
	return g, counter, acc, pred, RepeatWhileTrue(pred, Execute(cs))
}

func runCountdown(t *testing.T, n float64, spec string, opts ...EngineOption) (float64, RunReport, error) {
	t.Helper()
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	if spec != "" {
		sched, err := faultinject.ParseSchedule(spec)
		if err != nil {
			t.Fatal(err)
		}
		dev.SetInjector(sched)
	}
	eng, err := NewEngine(g, prog, dev, opts...)
	if err != nil {
		t.Fatal(err)
	}
	counter.SetScalar(n)
	acc.SetScalar(0)
	pred.SetScalar(1)
	err = eng.RunContext(context.Background())
	return acc.ScalarValue(), eng.Report(), err
}

func TestRunContextFaultFree(t *testing.T) {
	got, rep, err := runCountdown(t, 20, "")
	if err != nil {
		t.Fatal(err)
	}
	if got != 210 { // 20·21/2
		t.Fatalf("acc = %g, want 210", got)
	}
	if rep.Retries != 0 || rep.CheckpointsSaved != 0 {
		t.Fatalf("fault-free run did recovery work: %+v", rep)
	}
}

func TestTransientFaultCheckpointResumeExact(t *testing.T) {
	// Fault at superstep 10 with checkpoints every 4 steps: the engine
	// must restore the step-8 snapshot, replay positionally, and still
	// produce the exact fault-free sum — the NaN scribble the fault
	// leaves behind must be gone.
	got, rep, err := runCountdown(t, 20, "exchange at=10",
		WithRetry(3, 0), WithCheckpointEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 210 {
		t.Fatalf("acc = %g, want exact fault-free 210", got)
	}
	if rep.Retries != 1 || rep.CheckpointsRestored != 1 {
		t.Fatalf("report = %+v, want 1 retry / 1 restore", rep)
	}
	if rep.CheckpointsSaved < 3 {
		t.Fatalf("report = %+v, expected ≥ 3 checkpoints over 20 steps", rep)
	}
}

func TestTransientFaultBeforeFirstCheckpoint(t *testing.T) {
	// Fault at superstep 1 with a cadence larger than the run: only
	// checkpoint 0 (initial state) exists, so recovery restarts cleanly.
	got, rep, err := runCountdown(t, 10, "exchange at=1",
		WithRetry(2, 0), WithCheckpointEvery(1000))
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 {
		t.Fatalf("acc = %g, want 55", got)
	}
	if rep.Retries != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestFatalFaultSurfacesTyped(t *testing.T) {
	_, _, err := runCountdown(t, 20, "reset at=5", WithRetry(5, 0))
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *faultinject.FaultError", err)
	}
	if fe.Class != faultinject.DeviceReset || fe.Transient() {
		t.Fatalf("fault = %+v, want fatal DeviceReset", fe)
	}
}

func TestRetriesExhaustedStaysTyped(t *testing.T) {
	// An unlimited transient storm: every superstep faults, so the
	// retry budget drains and the *last* fault surfaces, still typed.
	_, rep, err := runCountdown(t, 20, "exchange every=1 times=-1", WithRetry(2, 0))
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || !fe.Transient() {
		t.Fatalf("err = %v, want transient FaultError", err)
	}
	if rep.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", rep.Retries)
	}
}

func TestNoRetryWithoutBudget(t *testing.T) {
	// Default retries = 0: the first transient fault surfaces directly.
	_, rep, err := runCountdown(t, 20, "exchange at=3")
	if !faultinject.IsTransient(err) {
		t.Fatalf("err = %v, want transient fault", err)
	}
	if rep.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", rep.Retries)
	}
}

func TestBackoffDoublesAndWaits(t *testing.T) {
	start := time.Now()
	got, rep, err := runCountdown(t, 10, "exchange at=2 times=2",
		WithRetry(3, time.Millisecond), WithCheckpointEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 || rep.Retries != 2 {
		t.Fatalf("acc = %g, report = %+v", got, rep)
	}
	// 1ms + 2ms of backoff at minimum.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("run finished in %v, backoff not applied", elapsed)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, counter, acc, pred, prog := newCountdown()
	_ = acc
	dev := newDev(t, smallCfg())
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	counter.SetScalar(20)
	pred.SetScalar(1)
	if err := eng.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := NewGraph(smallCfg())
	counter := g.AddVariable("counter", Float, 1)
	pred := g.AddVariable("pred", Float, 1)
	g.SetTileMapping(counter, 0, 0, 1)
	g.SetTileMapping(pred, 0, 0, 1)
	cs := g.AddComputeSet("tick")
	cr := counter.All()
	cs.AddVertex(0, func(w *Worker) {
		cr.Data()[0]++
		if cr.Data()[0] == 5 {
			cancel() // the 5th superstep pulls the plug
		}
		w.ChargeVec(1)
	}).Reads(cr).Writes(cr)
	dev := newDev(t, smallCfg())
	eng, err := NewEngine(g, RepeatWhileTrue(pred, Execute(cs)), dev)
	if err != nil {
		t.Fatal(err)
	}
	pred.SetScalar(1) // would loop forever without the cancel
	if err := eng.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := counter.ScalarValue(); got < 5 || got > 6 {
		t.Fatalf("cancelled after %g ticks, want prompt stop near 5", got)
	}
}

func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	g, counter, _, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	eng, err := NewEngine(g, prog, dev)
	if err != nil {
		t.Fatal(err)
	}
	counter.SetScalar(20)
	pred.SetScalar(1)
	if err := eng.RunContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestHostTransferStallRetries(t *testing.T) {
	g := NewGraph(smallCfg())
	x := g.AddVariable("x", Float, 4)
	g.MapLinearly(x)
	cs := g.AddComputeSet("noop")
	cs.AddVertex(0, func(w *Worker) { w.ChargeVec(1) }).Reads(x.Index(0))
	dev := newDev(t, smallCfg())
	sched, err := faultinject.ParseSchedule("stall times=1")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(sched)
	eng, err := NewEngine(g, Execute(cs), dev, WithRetry(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.HostWrite(x, []float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("HostWrite with retry budget: %v", err)
	}
	if rep := eng.Report(); rep.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", rep.Retries)
	}
	got, err := eng.HostRead(x)
	if err != nil || got[2] != 3 {
		t.Fatalf("HostRead = %v, %v", got, err)
	}
}

func TestHostTransferStallExhausts(t *testing.T) {
	g := NewGraph(smallCfg())
	x := g.AddVariable("x", Float, 4)
	g.MapLinearly(x)
	cs := g.AddComputeSet("noop")
	cs.AddVertex(0, func(w *Worker) { w.ChargeVec(1) }).Reads(x.Index(0))
	dev := newDev(t, smallCfg())
	sched, err := faultinject.ParseSchedule("stall times=-1")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(sched)
	eng, err := NewEngine(g, Execute(cs), dev, WithRetry(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	err = eng.HostWrite(x, []float64{1, 2, 3, 4})
	var fe *faultinject.FaultError
	if !errors.As(err, &fe) || fe.Class != faultinject.HostTransferStall {
		t.Fatalf("err = %v, want HostTransferStall", err)
	}
}

func TestCopyFaultRecovery(t *testing.T) {
	g := NewGraph(smallCfg())
	src := g.AddVariable("src", Float, 8)
	dst := g.AddVariable("dst", Float, 8)
	g.MapLinearly(src)
	g.SetTileMapping(dst, 1, 0, 8)
	dev := newDev(t, smallCfg())
	sched, err := faultinject.ParseSchedule("exchange phase=copy:dst")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(sched)
	eng, err := NewEngine(g, Copy(src.All(), dst.All()), dev, WithRetry(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	src.HostWrite(vals)
	if err := eng.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst.HostRead() {
		if v != vals[i] {
			t.Fatalf("dst[%d] = %g after recovery, want %g", i, v, vals[i])
		}
	}
	if rep := eng.Report(); rep.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", rep.Retries)
	}
}

func TestEngineReuseAcrossRuns(t *testing.T) {
	// Cached engines are reused solve-to-solve; recovery state must not
	// leak between runs.
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	sched, err := faultinject.ParseSchedule("exchange at=3")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(sched)
	eng, err := NewEngine(g, prog, dev, WithRetry(2, 0), WithCheckpointEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 3; run++ {
		eng.ResetReport()
		counter.SetScalar(10)
		acc.SetScalar(0)
		pred.SetScalar(1)
		if err := eng.RunContext(context.Background()); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := acc.ScalarValue(); got != 55 {
			t.Fatalf("run %d: acc = %g, want 55", run, got)
		}
		if run == 0 {
			// The one-shot rule fires on the first run only; the device
			// superstep clock is monotone so at=3 never matches again.
			if rep := eng.Report(); rep.Retries != 1 {
				t.Fatalf("run 0: Retries = %d, want 1", rep.Retries)
			}
		} else if rep := eng.Report(); rep.Retries != 0 {
			t.Fatalf("run %d: Retries = %d, want 0", run, rep.Retries)
		}
	}
}

// TestResumeMovesCheckpointAcrossEngines pins the hand-over a
// multi-chip solve makes after losing a chip: a run that fails fatally
// hands back its newest checkpoint, a second engine compiled from the
// same program shape resumes it to the exact fault-free result, and a
// checkpoint of a differently shaped graph is rejected.
func TestResumeMovesCheckpointAcrossEngines(t *testing.T) {
	run := func(spec string, from *Checkpoint, extra bool) (float64, *Checkpoint, error) {
		t.Helper()
		g, counter, acc, pred, prog := newCountdown()
		if extra {
			g.MapAllTo(g.AddVariable("extra", Float, 1), 0)
		}
		dev := newDev(t, smallCfg())
		if spec != "" {
			sched, err := faultinject.ParseSchedule(spec)
			if err != nil {
				t.Fatal(err)
			}
			dev.SetInjector(sched)
		}
		eng, err := NewEngine(g, prog, dev, WithCheckpointEvery(4))
		if err != nil {
			t.Fatal(err)
		}
		counter.SetScalar(20)
		acc.SetScalar(0)
		pred.SetScalar(1)
		cp, err := eng.Resume(context.Background(), from)
		return acc.ScalarValue(), cp, err
	}
	_, cp, err := run("reset at=10", nil, false)
	if fe, ok := faultinject.AsFault(err); !ok || fe.Transient() {
		t.Fatalf("err = %v, want the fatal reset", err)
	}
	if cp == nil {
		t.Fatal("failed run handed back no checkpoint")
	}
	if _, _, err := run("", cp, true); err == nil {
		t.Fatal("checkpoint of a differently shaped graph accepted")
	}
	got, left, err := run("", cp, false)
	if err != nil || left != nil {
		t.Fatalf("resumed run: err=%v checkpoint=%v", err, left)
	}
	if got != 210 {
		t.Fatalf("acc = %g, want the exact fault-free 210", got)
	}
}
