package poplar

import (
	"context"
	"errors"
	"math"
	"slices"
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
		WithRetry(3), WithCheckpointEvery(4))
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
		WithRetry(2), WithCheckpointEvery(1000))
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
	_, _, err := runCountdown(t, 20, "reset at=5", WithRetry(5))
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
	_, rep, err := runCountdown(t, 20, "exchange every=1 times=-1", WithRetry(2))
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

func TestRepeatedTransientFaultRetried(t *testing.T) {
	// The same superstep faults twice: each retry resumes from the
	// last checkpoint at once, and the second replay completes exactly.
	got, rep, err := runCountdown(t, 10, "exchange at=2 times=2",
		WithRetry(3), WithCheckpointEvery(4))
	if err != nil {
		t.Fatal(err)
	}
	if got != 55 || rep.Retries != 2 {
		t.Fatalf("acc = %g, report = %+v", got, rep)
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
	eng, err := NewEngine(g, Execute(cs), dev, WithRetry(2))
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
	eng, err := NewEngine(g, Execute(cs), dev, WithRetry(1))
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
	eng, err := NewEngine(g, Copy(src.All(), dst.All()), dev, WithRetry(1))
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
	eng, err := NewEngine(g, prog, dev, WithRetry(2), WithCheckpointEvery(2))
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

// armedFault fires its class at the next superstep check once armed.
type armedFault struct {
	class faultinject.Class
	on    bool
}

func (a *armedFault) Check(p faultinject.Point) *faultinject.FaultError {
	if !a.on || p.Kind != faultinject.KindSuperstep {
		return nil
	}
	a.on = false
	return &faultinject.FaultError{Class: a.class, Point: p, Rule: -1}
}

// TestSnapshotsEqualFullCopies runs every path that changes tensor
// data between two saves. Each save must capture exactly the live
// state — as a full copy would — while every tensor the path did not
// touch shares the previous snapshot's buffer, and recycling buffers
// through the ring, or after rollback discards a snapshot, must never
// disturb an older snapshot.
func TestSnapshotsEqualFullCopies(t *testing.T) {
	g := NewGraph(smallCfg())
	a := g.AddVariable("a", Float, 8)
	b := g.AddVariable("b", Float, 8)
	c := g.AddVariable("c", Float, 8)
	s := g.AddVariable("s", Float, 1)
	g.MapLinearly(a)
	g.SetTileMapping(b, 1, 0, 8)
	g.SetTileMapping(c, 2, 0, 8)
	g.MapAllTo(s, 3)
	cs := g.AddComputeSet("step") // b = a + 1: reads a, writes b
	ar, br := a.All(), b.All()
	cs.AddVertex(1, func(w *Worker) {
		for i, v := range ar.Data() {
			br.Data()[i] = v + 1
		}
		w.ChargeVec(8)
	}).Reads(ar).Writes(br)
	step, cp := Execute(cs), Copy(b.All(), c.All())
	dev := newDev(t, smallCfg())
	inj := &armedFault{}
	dev.SetInjector(inj)
	eng, err := NewEngine(g, Sequence(step, cp), dev)
	if err != nil {
		t.Fatal(err)
	}
	eng.cpLive = 1 << 40 // checkpointing active; saves only where the test takes them
	fault := func(class faultinject.Class, prog Program) func() {
		return func() {
			inj.class, inj.on = class, true
			_ = prog.exec(eng)
		}
	}
	vals := func(v float64) []float64 {
		out := make([]float64, 8)
		for i := range out {
			out[i] = v + float64(i)
		}
		return out
	}
	all := []*Tensor{a, b, c, s}
	var want [][][]float64 // full copies of the state at each save, oldest first
	save := func() {
		eng.saveCheckpoint()
		var full [][]float64
		for _, x := range all {
			full = append(full, x.HostRead())
		}
		want = append(want, full)
		if len(want) > guardRingSize {
			want = want[1:]
		}
	}
	ringIntact := func(after string) {
		t.Helper()
		for k, cp := range eng.cps {
			for _, x := range all {
				if !sameBits(cp.data[x.id], want[k][x.id]) {
					t.Fatalf("after %s: ring snapshot %d of %q changed to %v, want %v", after, k, x.Name, cp.data[x.id], want[k][x.id])
				}
			}
		}
	}
	save()
	for _, p := range []struct {
		name    string
		run     func()
		touched []*Tensor
	}{
		{"engine host write", func() { _ = eng.HostWrite(a, vals(10)) }, []*Tensor{a}},
		{"compute set", func() { _ = step.exec(eng) }, []*Tensor{b}},
		{"copy", func() { _ = cp.exec(eng) }, []*Tensor{c}},
		{"tensor host write", func() { b.HostWrite(vals(20)) }, []*Tensor{b}},
		{"set scalar", func() { s.SetScalar(7) }, []*Tensor{s}},
		{"tile flip on a read-only tensor", fault(faultinject.SilentTileBitflip, step), []*Tensor{a, b}},
		{"exchange scribble", fault(faultinject.ExchangeCorruption, step), []*Tensor{b}},
		{"zero state", eng.ZeroState, all},
		{"engine host write again", func() { _ = eng.HostWrite(c, vals(30)) }, []*Tensor{c}},
		{"reset", fault(faultinject.DeviceReset, step), all},
	} {
		p.run()
		prev := eng.cps[len(eng.cps)-1]
		save()
		newest := eng.cps[len(eng.cps)-1]
		for _, x := range all {
			if !sameBits(newest.data[x.id], x.data) {
				t.Errorf("%s: snapshot of %q = %v, live %v", p.name, x.Name, newest.data[x.id], x.data)
			}
			if !slices.Contains(p.touched, x) && &newest.data[x.id][0] != &prev.data[x.id][0] {
				t.Errorf("%s: untouched %q was copied instead of shared", p.name, x.Name)
			}
		}
		ringIntact(p.name)
	}
	// Rollback discards the newest snapshot, which shares every buffer
	// but s's with the one before it, and restores that one.
	s.SetScalar(9)
	save()
	eng.drop(len(eng.cps) - 1)
	want = want[:len(want)-1]
	eng.restoreCheckpoint(eng.cps[len(eng.cps)-1])
	_ = eng.HostWrite(a, vals(40))
	save()
	ringIntact("a rollback")
}

// sameBits compares float slices bit for bit, so NaN scribbles match.
func sameBits(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
}

// TestHandedBackCheckpointKeepsBuffers: the snapshot Resume hands back
// belongs to the caller, so the engine's next runs, which recycle the
// rest of the ring, must never write into it.
func TestHandedBackCheckpointKeepsBuffers(t *testing.T) {
	g, counter, acc, pred, prog := newCountdown()
	dev := newDev(t, smallCfg())
	sched, err := faultinject.ParseSchedule("reset at=10")
	if err != nil {
		t.Fatal(err)
	}
	dev.SetInjector(sched)
	eng, err := NewEngine(g, prog, dev, WithCheckpointEvery(2))
	if err != nil {
		t.Fatal(err)
	}
	counter.SetScalar(20)
	acc.SetScalar(0)
	pred.SetScalar(1)
	cp, err := eng.Resume(context.Background(), nil)
	if err == nil || cp == nil {
		t.Fatalf("err = %v, checkpoint %v: want a failed run handing back its newest snapshot", err, cp)
	}
	held := make([][]float64, len(cp.data))
	for i, d := range cp.data {
		held[i] = slices.Clone(d)
	}
	for run := 0; run < 2; run++ {
		counter.SetScalar(20)
		acc.SetScalar(0)
		pred.SetScalar(1)
		if err := eng.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := range held {
		if !slices.Equal(cp.data[i], held[i]) {
			t.Fatalf("handed-back tensor %d changed from %v to %v", i, held[i], cp.data[i])
		}
	}
}
