package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CycleCharge verifies the cost model's soundness invariant: every
// path through internal/ipu and internal/poplar that performs modeled
// device work (guard checksum contributions, probe evaluations,
// //hunipulint:work-annotated primitives) must also pass a charging
// call (Device.ChargeGuard/ChargeSync, a
// superstep advance, a pending-cycle accrual, or a
// //hunipulint:charges-annotated helper) before returning. Work that
// can reach a return uncharged silently deflates the paper's cycle
// counts, so the check reports the exact uncharged call path.
//
// The analysis is interprocedural: a function whose every path
// charges discharges the call sites that reach it, and a function
// that leaks uncharged work turns each call to it into a work site in
// its callers. Findings are reported at roots (exported functions,
// functions with no in-scope callers, and escaping function values)
// with the leaking call chain in the message.
var CycleCharge = &Analyzer{
	Name:       "cyclecharge",
	Doc:        "modeled device work must be charged to the cycle model on every path",
	RunProgram: runCycleCharge,
}

// cycleChargePkgs scopes the check to the cost-model layers.
var cycleChargePkgs = []string{"internal/ipu", "internal/poplar"}

// workPrimitives are the leaf functions that *are* the modeled work;
// they are exempt from reporting (their callers carry the charge
// obligation) and calls to them are work sites.
var workPrimitives = map[string]bool{
	"sumContribution": true,
}

// chargeMethods are the charging calls on the device cost model,
// matched structurally (method of a type named Device) so fixtures
// and the real internal/ipu.Device both qualify.
var chargeMethods = map[string]bool{
	"ChargeGuard": true,
	"ChargeSync":  true,
	"Superstep":   true,
}

func inCycleChargeScope(path string) bool {
	for _, t := range cycleChargePkgs {
		if pkgWithin(path, t) {
			return true
		}
	}
	return false
}

// ccWitness describes one uncharged-work leak.
type ccWitness struct {
	pos   token.Pos
	node  ast.Node
	desc  string
	chain []string // call chain below this function, outermost first
}

// ccSummary is one function's cyclecharge summary.
type ccSummary struct {
	analyzed   bool
	chargesAll bool // every entry→exit path passes a charge
	leak       *ccWitness
}

type ccState struct {
	prog      *Program
	summaries map[*FuncNode]*ccSummary
}

func runCycleCharge(p *ProgramPass) {
	st := &ccState{prog: p.Prog, summaries: map[*FuncNode]*ccSummary{}}
	cg := p.Prog.CG
	for _, f := range cg.Funcs {
		st.summaries[f] = &ccSummary{}
	}

	// Pass 1 (monotone grow): which functions charge on all paths.
	cg.Fixpoint(func(f *FuncNode) bool {
		if !st.inScope(f) {
			return false
		}
		s := st.summaries[f]
		s.analyzed = true
		if s.chargesAll {
			return false
		}
		if f.HasDirective("charges") || st.chargesAllPaths(f) {
			s.chargesAll = true
			return true
		}
		return false
	})

	// Pass 2 (monotone grow, barriers frozen): which functions leak.
	cg.Fixpoint(func(f *FuncNode) bool {
		if !st.inScope(f) || st.summaries[f].chargesAll {
			return false
		}
		s := st.summaries[f]
		if s.leak != nil {
			return false
		}
		s.leak = st.findLeak(f)
		return s.leak != nil
	})

	// Report at roots, with the call chain as the path witness.
	for _, f := range cg.Funcs {
		s := st.summaries[f]
		if !s.analyzed || s.leak == nil || !st.isRoot(f) {
			continue
		}
		path := f.Name
		if len(s.leak.chain) > 0 {
			path += " → " + strings.Join(s.leak.chain, " → ")
		}
		p.ReportNodef(f.Pkg, s.leak.node,
			"uncharged modeled work: %s reaches a return of %s with no cycle charge on the path (%s)",
			s.leak.desc, f.Name, path)
	}
}

// inScope reports whether f participates in the analysis: in a scoped
// package, with a body, and not itself a work primitive.
func (st *ccState) inScope(f *FuncNode) bool {
	if !inCycleChargeScope(f.Pkg.Path) {
		return false
	}
	if f.Decl != nil && workPrimitives[f.Decl.Name.Name] {
		return false
	}
	return !f.HasDirective("work")
}

// isRoot reports whether leaks in f are reported here rather than at
// a caller: exported API, escaping function values, and functions no
// in-scope code calls all have no analyzed caller to carry the
// obligation.
func (st *ccState) isRoot(f *FuncNode) bool {
	if f.Obj != nil && f.Obj.Exported() {
		return true
	}
	if f.Referenced {
		return true
	}
	for _, caller := range st.prog.CG.Callers[f] {
		if st.inScope(caller) {
			return false
		}
	}
	return true
}

// stmtFacts classifies one CFG node's statement.
type stmtFacts struct {
	charges bool
	// work holds the first work site in the statement, if any.
	work *ccWitness
}

// classify inspects the statement of one CFG node, skipping nested
// function literals (they are separate call-graph nodes).
func (st *ccState) classify(f *FuncNode, n *CFGNode, withCallees bool) stmtFacts {
	var facts stmtFacts
	if n.Stmt == nil {
		return facts
	}
	info := f.Pkg.Info
	// Pending-cycle accrual (l.pending[d] += n) batches charges into a
	// ledger flushed at a barrier; treat it as a charging statement.
	if as, ok := n.Stmt.(*ast.AssignStmt); ok && as.Tok == token.ADD_ASSIGN {
		for _, lhs := range as.Lhs {
			if selNameContains(lhs, "pending") {
				facts.charges = true
			}
		}
	}
	ShallowInspect(n.Stmt, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isChargeCall(info, call) {
			facts.charges = true
			return true
		}
		if w := st.workAt(f, call, withCallees); w != nil && facts.work == nil {
			facts.work = w
		}
		return true
	})
	return facts
}

// workAt reports whether call is a work site: a work primitive, an
// InvariantProbe.Check invocation, a //hunipulint:work-annotated
// function, or (when withCallees) a call to a leaking callee.
func (st *ccState) workAt(f *FuncNode, call *ast.CallExpr, withCallees bool) *ccWitness {
	info := f.Pkg.Info
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok && workPrimitives[fn.Name()] && inCycleChargeScope(pkgPathOf(fn)) {
			return &ccWitness{pos: call.Pos(), node: call, desc: "call to " + fn.Name()}
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && workPrimitives[fn.Name()] && inCycleChargeScope(pkgPathOf(fn)) {
			return &ccWitness{pos: call.Pos(), node: call, desc: "call to " + fn.Name()}
		}
		// p.Check() where p is an InvariantProbe: probe evaluation is
		// modeled work (validateEpoch charges p.Cost for it).
		if fun.Sel.Name == "Check" && receiverTypeNamed(info, fun.X, "InvariantProbe") {
			return &ccWitness{pos: call.Pos(), node: call, desc: "InvariantProbe.Check evaluation"}
		}
	}
	if callee := st.calleeOf(f, call); callee != nil {
		if callee.HasDirective("work") {
			return &ccWitness{pos: call.Pos(), node: call, desc: "call to work-annotated " + callee.Name}
		}
		if withCallees {
			if ls := st.summaries[callee]; ls != nil && ls.leak != nil {
				return &ccWitness{
					pos:   call.Pos(),
					node:  call,
					desc:  ls.leak.desc,
					chain: append([]string{callee.Name}, ls.leak.chain...),
				}
			}
		}
	}
	return nil
}

// calleeOf resolves call to a known function node, if any.
func (st *ccState) calleeOf(f *FuncNode, call *ast.CallExpr) *FuncNode {
	return st.prog.CG.CalleeOf(f.Pkg.Info, call)
}

// isChargeBarrier reports whether node charges: a direct charging
// statement, or a call to a callee that charges on all its paths.
func (st *ccState) isChargeBarrier(f *FuncNode, n *CFGNode) bool {
	if n.Stmt == nil {
		return false
	}
	if st.classify(f, n, false).charges {
		return true
	}
	barrier := false
	ShallowInspect(n.Stmt, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			if callee := st.calleeOf(f, call); callee != nil {
				if s := st.summaries[callee]; s != nil && s.chargesAll {
					barrier = true
				}
			}
		}
		return true
	})
	return barrier
}

// chargesAllPaths reports whether every entry→exit path of f passes a
// charge. A deferred charging call charges every path by definition.
func (st *ccState) chargesAllPaths(f *FuncNode) bool {
	cfg := f.CFG()
	for _, d := range cfg.Deferred {
		if isChargeCall(f.Pkg.Info, d) {
			return true
		}
	}
	barrier := func(n *CFGNode) bool { return st.isChargeBarrier(f, n) }
	return !cfg.ForwardReach(cfg.Entry, barrier)[cfg.Exit]
}

// findLeak looks for a work site w with a charge-free path entry→w
// and a charge-free path w→exit. The earliest such site (source
// order) becomes the witness.
func (st *ccState) findLeak(f *FuncNode) *ccWitness {
	cfg := f.CFG()
	for _, d := range cfg.Deferred {
		if isChargeCall(f.Pkg.Info, d) {
			return nil
		}
	}
	barrier := func(n *CFGNode) bool { return st.isChargeBarrier(f, n) }
	fromEntry := cfg.ForwardReach(cfg.Entry, barrier)
	toExit := cfg.BackwardReach(cfg.Exit, barrier)
	var best *ccWitness
	for _, n := range cfg.Nodes {
		if !fromEntry[n] || !toExit[n] || barrier(n) {
			continue
		}
		facts := st.classify(f, n, true)
		if facts.work == nil {
			continue
		}
		if best == nil || facts.work.pos < best.pos {
			best = facts.work
		}
	}
	return best
}

// isChargeCall matches d.ChargeGuard/ChargeSync and
// d.Superstep on a type named Device in a scoped package.
func isChargeCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !chargeMethods[sel.Sel.Name] {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return namedTypeName(sig.Recv().Type()) == "Device" && inCycleChargeScope(pkgPathOf(fn))
}

// --- small shared helpers ---

// pkgPathOf returns the import path of fn's package ("" for builtins).
func pkgPathOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// namedTypeName unwraps pointers and returns the named type's name.
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// receiverTypeNamed reports whether e's static type is (a pointer to)
// a named type called name.
func receiverTypeNamed(info *types.Info, e ast.Expr, name string) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	return namedTypeName(t) == name
}

// selNameContains reports whether e is (or indexes) a selector whose
// field name equals name.
func selNameContains(e ast.Expr, name string) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == name || selNameContains(e.X, name)
	case *ast.IndexExpr:
		return selNameContains(e.X, name)
	}
	return false
}
