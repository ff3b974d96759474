package poplar

import (
	"fmt"

	"hunipu/internal/faultinject"
	"hunipu/internal/ipu"
)

// Program is a node of the static control-flow tree executed by the
// Engine. Control flow itself is static (C4): loop bodies and branch
// arms are fixed graphs; only *which* arm runs may depend on a scalar
// predicate tensor, exactly as in Poplar.
type Program interface {
	compile(e *Engine) error
	exec(e *Engine) error
}

// Sequence runs programs in order.
func Sequence(ps ...Program) Program { return &seqProg{ps: ps} }

type seqProg struct{ ps []Program }

func (p *seqProg) compile(e *Engine) error {
	for _, q := range p.ps {
		if q == nil {
			continue
		}
		if err := q.compile(e); err != nil {
			return err
		}
	}
	return nil
}

func (p *seqProg) exec(e *Engine) error {
	for _, q := range p.ps {
		if q == nil {
			continue
		}
		if err := q.exec(e); err != nil {
			return err
		}
	}
	return nil
}

// Execute runs one compute set as a BSP superstep.
func Execute(cs *ComputeSet) Program { return &execProg{cs: cs} }

type execProg struct{ cs *ComputeSet }

func (p *execProg) compile(e *Engine) error { return e.compileComputeSet(p.cs) }

func (p *execProg) exec(e *Engine) error {
	if e.replaying {
		return e.skipStep()
	}
	if err := e.interrupted(); err != nil {
		return err
	}
	fe := e.dev.CheckFault(p.cs.Name, faultinject.KindSuperstep)
	var reads, writes []Ref
	if fe != nil || e.guard != GuardOff {
		// Gathered into the engine's scratch pair, so a guarded or
		// faulted superstep allocates nothing once the pair has grown to
		// the largest step.
		reads, writes = e.reads[:0], e.writes[:0]
		for _, v := range p.cs.vertices {
			reads = append(reads, v.reads...)
			writes = append(writes, v.writes...)
		}
		e.reads, e.writes = reads, writes
	}
	if fe != nil && !fe.Silent() {
		e.applyFaultEffect(fe, writes)
		return fe
	}
	if fe != nil && e.applySilentFault(fe, reads, writes) {
		// Stale read: the step's writes are silently dropped, but the
		// superstep still costs its exchange and sync. No checksum
		// maintenance runs — no bytes changed, so the guard's checksums
		// stay consistent by construction; only invariant probes or final
		// attestation can see the missing update.
		e.dev.Superstep(0, p.cs.exchange, int64(len(p.cs.vertices)))
		if err := e.checkBudget(); err != nil {
			return err
		}
		return e.afterStep()
	}
	e.guardPreStep(writes)
	if err := e.runComputeSet(p.cs); err != nil {
		return err
	}
	e.guardPostStep(writes)
	if e.cpLive > 0 {
		for _, t := range p.cs.written {
			t.dirty = true
		}
	}
	if fe != nil {
		// In-fabric flip after the sender-side checksum update: only a
		// full verify can catch it.
		e.applyLateSilentFault(fe, writes)
	}
	return e.afterStep()
}

// Repeat runs the body a compile-time-fixed number of times.
func Repeat(n int, body Program) Program { return &repeatProg{n: n, body: body} }

type repeatProg struct {
	n    int
	body Program
}

func (p *repeatProg) compile(e *Engine) error {
	if p.n < 0 {
		return fmt.Errorf("poplar: Repeat count %d", p.n)
	}
	return p.body.compile(e)
}

func (p *repeatProg) exec(e *Engine) error {
	for i := 0; i < p.n; i++ {
		if err := p.body.exec(e); err != nil {
			return err
		}
	}
	return nil
}

// RepeatWhileTrue runs the body while the scalar predicate tensor is
// non-zero. Each predicate evaluation costs one synchronisation, as the
// hardware must agree on the branch before proceeding.
func RepeatWhileTrue(pred *Tensor, body Program) Program {
	return &whileProg{pred: pred, body: body}
}

type whileProg struct {
	pred *Tensor
	body Program
}

func (p *whileProg) compile(e *Engine) error {
	if p.pred.NumElements() != 1 {
		return fmt.Errorf("poplar: RepeatWhileTrue predicate %q must be scalar", p.pred.Name)
	}
	return p.body.compile(e)
}

func (p *whileProg) exec(e *Engine) error {
	for {
		var branch bool
		if e.replaying {
			b, err := e.replayDecision()
			if err != nil {
				return err
			}
			branch = b
		} else {
			e.dev.ChargeSync()
			if err := e.checkBudget(); err != nil {
				return err
			}
			if err := e.interrupted(); err != nil {
				return err
			}
			branch = p.pred.data[0] != 0
			e.recordDecision(branch)
		}
		if !branch {
			return nil
		}
		if err := p.body.exec(e); err != nil {
			return err
		}
	}
}

// If branches on a scalar predicate tensor; els may be nil.
func If(pred *Tensor, then, els Program) Program {
	return &ifProg{pred: pred, then: then, els: els}
}

type ifProg struct {
	pred      *Tensor
	then, els Program
}

func (p *ifProg) compile(e *Engine) error {
	if p.pred.NumElements() != 1 {
		return fmt.Errorf("poplar: If predicate %q must be scalar", p.pred.Name)
	}
	if err := p.then.compile(e); err != nil {
		return err
	}
	if p.els != nil {
		return p.els.compile(e)
	}
	return nil
}

func (p *ifProg) exec(e *Engine) error {
	var branch bool
	if e.replaying {
		b, err := e.replayDecision()
		if err != nil {
			return err
		}
		branch = b
	} else {
		e.dev.ChargeSync()
		if err := e.checkBudget(); err != nil {
			return err
		}
		if err := e.interrupted(); err != nil {
			return err
		}
		branch = p.pred.data[0] != 0
		e.recordDecision(branch)
	}
	if branch {
		return p.then.exec(e)
	}
	if p.els != nil {
		return p.els.exec(e)
	}
	return nil
}

// Copy moves src into dst as its own exchange step. Lengths must match;
// only the bytes whose source and destination tiles differ are charged.
func Copy(src, dst Ref) Program { return &copyProg{src: src, dst: dst} }

type copyProg struct {
	src, dst Ref

	exchange ipu.Exchange
	ready    bool
}

func (p *copyProg) compile(e *Engine) error {
	if p.src.Len() != p.dst.Len() {
		return fmt.Errorf("poplar: Copy length mismatch %q[%d] → %q[%d]",
			p.src.T.Name, p.src.Len(), p.dst.T.Name, p.dst.Len())
	}
	if p.ready {
		return nil
	}
	cfg, ports := e.graph.cfg, &e.ports
	bytes := int64(p.dst.T.DType.DeviceBytes())
	// Walk both refs' region decompositions in lockstep.
	off := 0
	p.src.T.regionsIn(p.src.Start, p.src.End, func(s, end, srcTile int) {
		for s < end {
			segStart := p.dst.Start + off
			chunk := end - s
			p.dst.T.regionsIn(segStart, segStart+chunk, func(ds, de, dstTile int) {
				n := int64(de - ds)
				if srcTile != dstTile {
					ports.out[srcTile] += n * bytes
					ports.in[dstTile] += n * bytes
					if cfg.IPUOf(srcTile) != cfg.IPUOf(dstTile) {
						ports.cross += n * bytes
					}
				}
			})
			s += chunk
			off += chunk
		}
	})
	p.exchange = ports.exchange()
	p.ready = true
	return nil
}

func (p *copyProg) exec(e *Engine) error {
	if e.replaying {
		return e.skipStep()
	}
	if err := e.interrupted(); err != nil {
		return err
	}
	fe := e.dev.CheckFault("copy:"+p.dst.T.Name, faultinject.KindSuperstep)
	if fe != nil && !fe.Silent() {
		e.applyFaultEffect(fe, []Ref{p.dst})
		return fe
	}
	if fe != nil && e.applySilentFault(fe, []Ref{p.src}, []Ref{p.dst}) {
		// Stale read: the copy silently does not land; cost still accrues.
		e.dev.Superstep(0, p.exchange, 0)
		if err := e.checkBudget(); err != nil {
			return err
		}
		return e.afterStep()
	}
	e.guardPreStep([]Ref{p.dst})
	copy(p.dst.Data(), p.src.Data())
	if e.cpLive > 0 {
		p.dst.T.dirty = true
	}
	e.guardPostStep([]Ref{p.dst})
	if fe != nil {
		e.applyLateSilentFault(fe, []Ref{p.dst})
	}
	e.dev.Superstep(0, p.exchange, 0)
	if err := e.checkBudget(); err != nil {
		return err
	}
	return e.afterStep()
}
