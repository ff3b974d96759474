package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline enforces two whole-program rules over the mutexes
// guarding the compiled programs and their cache, and the serve
// breaker/queue:
//
//  1. No blocking operation while a mutex is held: channel sends and
//     receives (unless polled through a select with default), select
//     without default, WaitGroup.Wait / Cond.Wait, time.Sleep, engine
//     or server run loops, calls to functions that may transitively
//     block, and indirect calls through function values (a stored
//     hook can re-enter the locked structure and self-deadlock).
//  2. Consistent acquisition order: if one path locks A then B while
//     another locks B then A — including acquisitions buried in
//     callees — the pair is reported as a potential deadlock cycle.
//
// Lock identity is (defining struct, field name) for mutex fields and
// the local variable otherwise; held sets are tracked flow-sensitively
// through each function's CFG, so the progcache pattern of unlocking
// before waiting on a singleflight channel is recognized as safe.
var LockDiscipline = &Analyzer{
	Name:       "lockdiscipline",
	Doc:        "no blocking calls under held mutexes; consistent lock order across the call graph",
	RunProgram: runLockDiscipline,
}

// lockDisciplinePkgs scopes the check to the concurrent runtime
// layers (the deterministic kernels plus the layers that lock).
var lockDisciplinePkgs = []string{
	"internal/core",
	"internal/serve",
	"internal/poplar",
	"internal/faultinject",
	"internal/ipu",
}

func inLockScope(path string) bool {
	for _, t := range lockDisciplinePkgs {
		if pkgWithin(path, t) {
			return true
		}
	}
	return false
}

// lockID identifies a mutex: "pkg.Struct.field" for fields,
// "local:name" for mutex-typed locals/params.
type lockID string

// ldSummary is one function's lock summary.
type ldSummary struct {
	analyzed bool
	// mayBlock is set when the function can block (directly or via a
	// callee); desc explains how, for caller-side messages.
	mayBlock  bool
	blockDesc string
	// acquires holds every lock the function (transitively) acquires.
	acquires map[lockID]bool
}

// ldOrderEdge is one observed A-held-while-acquiring-B event.
type ldOrderEdge struct {
	from, to lockID
	pkg      *Package
	node     ast.Node
	detail   string
}

type ldState struct {
	prog      *Program
	summaries map[*FuncNode]*ldSummary
	edges     []ldOrderEdge
	edgeSeen  map[string]bool
}

func runLockDiscipline(p *ProgramPass) {
	st := &ldState{
		prog:      p.Prog,
		summaries: map[*FuncNode]*ldSummary{},
		edgeSeen:  map[string]bool{},
	}
	cg := p.Prog.CG
	for _, f := range cg.Funcs {
		st.summaries[f] = &ldSummary{acquires: map[lockID]bool{}}
	}

	// Fixpoint over mayBlock + acquires (both monotone grow).
	cg.Fixpoint(func(f *FuncNode) bool {
		if !inLockScope(f.Pkg.Path) {
			return false
		}
		s := st.summaries[f]
		s.analyzed = true
		changed := false
		blocked, desc := st.computeMayBlock(f)
		if blocked && !s.mayBlock {
			s.mayBlock, s.blockDesc = true, desc
			changed = true
		}
		for id := range st.computeAcquires(f) {
			if !s.acquires[id] {
				s.acquires[id] = true
				changed = true
			}
		}
		return changed
	})

	// Per-function flow-sensitive pass: held sets, violations, order
	// edges.
	for _, f := range cg.Funcs {
		if st.summaries[f].analyzed {
			st.checkFunc(p, f)
		}
	}

	// Lock-order cycles: A→B and B→A both observed.
	st.reportCycles(p)
}

// lockOp classifies one statement's effect on the held set.
type lockOp struct {
	acquire  []lockID
	release  []lockID
	deferRel []lockID
}

// heldSet maps lock → description of where it was acquired.
type heldSet map[lockID]string

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// checkFunc runs the flow-sensitive held-lock analysis over f's CFG,
// reporting blocking-under-lock violations and recording order edges.
//
// Held sets merge by union (may-hold); a deferred Unlock keeps the
// lock held to function exit, which is the common defer-based
// critical-section shape.
func (st *ldState) checkFunc(p *ProgramPass, f *FuncNode) {
	cfg := f.CFG()
	deferHeld := map[lockID]bool{}
	for _, d := range cfg.Deferred {
		if id, _, ok := st.lockCall(f, d); ok {
			// defer mu.Unlock(): held until exit.
			if isUnlockName(calledName(d)) {
				deferHeld[id] = true
			}
		}
	}

	in := map[*CFGNode]heldSet{}
	var worklist []*CFGNode
	in[cfg.Entry] = heldSet{}
	worklist = append(worklist, cfg.Entry)
	reported := map[string]bool{}
	for len(worklist) > 0 {
		n := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		held := in[n]
		out := held.clone()
		if n.Stmt != nil {
			st.transfer(p, f, n, held, out, deferHeld, reported)
		}
		for _, s := range n.Succs {
			cur, ok := in[s]
			if !ok {
				in[s] = out.clone()
				worklist = append(worklist, s)
				continue
			}
			grew := false
			for id, d := range out {
				if _, ok := cur[id]; !ok {
					cur[id] = d
					grew = true
				}
			}
			if grew {
				worklist = append(worklist, s)
			}
		}
	}
}

// transfer applies one statement: report violations against the held
// set on entry, then update out with acquisitions/releases.
func (st *ldState) transfer(p *ProgramPass, f *FuncNode, n *CFGNode, held, out heldSet, deferHeld map[lockID]bool, reported map[string]bool) {
	info := f.Pkg.Info
	stmt := n.Stmt

	reportOnce := func(node ast.Node, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%v:%s", node.Pos(), msg)
		if !reported[key] {
			reported[key] = true
			p.ReportNodef(f.Pkg, node, "%s", msg)
		}
	}
	heldNames := func() string {
		ids := make([]string, 0, len(held))
		for id := range held {
			ids = append(ids, string(id))
		}
		sort.Strings(ids)
		return strings.Join(ids, ", ")
	}

	// Deferred calls run at exit (deferHeld models their effect) and a
	// goroutine launch never blocks the launcher; neither statement's
	// call is an in-line effect here.
	switch stmt.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return
	}

	// Blocking statement forms. Select heads are decided here and not
	// walked further (their comm statements and clause bodies are
	// separate CFG nodes).
	if sel, ok := stmt.(*ast.SelectStmt); ok {
		if len(held) == 0 {
			return
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			reportOnce(sel, "select without default while holding %s may block", heldNames())
		}
		return
	}
	if len(held) > 0 && !f.CFG().NonBlockingComm(stmt) {
		if s, ok := stmt.(*ast.SendStmt); ok {
			reportOnce(s, "channel send while holding %s may block", heldNames())
		} else {
			ShallowInspect(stmt, func(node ast.Node) bool {
				if u, ok := node.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					reportOnce(u, "channel receive while holding %s may block", heldNames())
					return false
				}
				return true
			})
		}
	}

	// Walk calls evaluated by this node's own statement.
	ShallowInspect(stmt, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, recvDesc, ok := st.lockCall(f, call); ok {
			name := calledName(call)
			switch {
			case isLockName(name):
				if prior, reheld := held[id]; reheld && prior == recvDesc {
					reportOnce(call, "re-acquiring %s already held here may self-deadlock", id)
				}
				for from := range held {
					if from != id {
						st.addEdge(from, id, f.Pkg, call, fmt.Sprintf("%s acquired while holding %s in %s", id, from, f.Name))
					}
				}
				out[id] = recvDesc
			case isUnlockName(name):
				if !deferHeld[id] {
					delete(out, id)
				}
			}
			return true
		}
		if len(held) == 0 {
			return true
		}
		// Known-blocking stdlib/runtime calls.
		if desc, blocking := blockingCall(info, call); blocking {
			reportOnce(call, "%s while holding %s may block", desc, heldNames())
			return true
		}
		// Indirect call through a stored function value: the callee
		// is unknown and may block or re-enter the locked structure.
		if st.isIndirectCall(f, call) {
			reportOnce(call, "indirect call through function value %s while holding %s may block or re-enter the lock", exprString(call.Fun), heldNames())
			return true
		}
		// Call to an in-scope function: consult its summary.
		if callee := st.calleeOf(f, call); callee != nil {
			s := st.summaries[callee]
			if s.mayBlock {
				reportOnce(call, "call to %s (%s) while holding %s may block", callee.Name, s.blockDesc, heldNames())
			}
			for id := range s.acquires {
				for from := range held {
					if from != id {
						st.addEdge(from, id, f.Pkg, call, fmt.Sprintf("%s acquired via %s while holding %s in %s", id, callee.Name, from, f.Name))
					}
				}
			}
		}
		return true
	})
}

// computeMayBlock reports whether f can block regardless of locks.
func (st *ldState) computeMayBlock(f *FuncNode) (bool, string) {
	cfg := f.CFG()
	info := f.Pkg.Info
	for _, n := range cfg.Nodes {
		if n.Stmt == nil {
			continue
		}
		switch s := n.Stmt.(type) {
		case *ast.SendStmt:
			if !cfg.NonBlockingComm(s) {
				return true, "channel send"
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				return true, "select without default"
			}
			continue
		}
		blocked := false
		desc := ""
		ShallowInspect(n.Stmt, func(node ast.Node) bool {
			if blocked {
				return false
			}
			if u, ok := node.(*ast.UnaryExpr); ok && u.Op == token.ARROW && !cfg.NonBlockingComm(n.Stmt) {
				blocked, desc = true, "channel receive"
				return false
			}
			if call, ok := node.(*ast.CallExpr); ok {
				if d, b := blockingCall(info, call); b {
					blocked, desc = true, d
					return false
				}
				if st.isIndirectCall(f, call) {
					blocked, desc = true, "invokes stored function value "+exprString(call.Fun)
					return false
				}
				if callee := st.calleeOf(f, call); callee != nil {
					if s := st.summaries[callee]; s.mayBlock {
						blocked, desc = true, "calls "+callee.Name
						return false
					}
				}
			}
			return true
		})
		if blocked {
			return true, desc
		}
	}
	return false, ""
}

// computeAcquires collects every lock f may acquire, including via
// callees. The walk is flow-insensitive (the summary answers "may f
// acquire X at all"), but skips nested literals, deferred calls and
// goroutine launches: those run in other dynamic contexts.
func (st *ldState) computeAcquires(f *FuncNode) map[lockID]bool {
	out := map[lockID]bool{}
	for _, n := range f.CFG().Nodes {
		if n.Stmt == nil {
			continue
		}
		ShallowInspect(n.Stmt, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, _, ok := st.lockCall(f, call); ok && isLockName(calledName(call)) {
				out[id] = true
				return true
			}
			if callee := st.calleeOf(f, call); callee != nil {
				for id := range st.summaries[callee].acquires {
					out[id] = true
				}
			}
			return true
		})
	}
	return out
}

// calleeOf resolves call to a known function node, if any.
func (st *ldState) calleeOf(f *FuncNode, call *ast.CallExpr) *FuncNode {
	return st.prog.CG.CalleeOf(f.Pkg.Info, call)
}

// lockCall resolves call as a (R)Lock/(R)Unlock on a sync.Mutex or
// sync.RWMutex and returns the lock's identity plus the receiver
// expression text (used to distinguish re-acquisition of the same
// instance from sibling instances).
func (st *ldState) lockCall(f *FuncNode, call *ast.CallExpr) (lockID, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	name := sel.Sel.Name
	if !isLockName(name) && !isUnlockName(name) {
		return "", "", false
	}
	fn, ok := f.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := sel.X // expression the method is called on
	id := st.identify(f, recv)
	if id == "" {
		return "", "", false
	}
	return id, exprString(recv), true
}

// identify derives the lock identity from the receiver expression.
func (st *ldState) identify(f *FuncNode, recv ast.Expr) lockID {
	info := f.Pkg.Info
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		// x.mu — identify by the defining struct type and field name.
		if field, ok := info.Uses[r.Sel].(*types.Var); ok && field.IsField() {
			owner := namedTypeName(derefType(info.TypeOf(r.X)))
			if owner == "" {
				owner = "?"
			}
			pkgPath := ""
			if field.Pkg() != nil {
				pkgPath = shortPkg(field.Pkg().Path())
			}
			return lockID(fmt.Sprintf("%s.%s.%s", pkgPath, owner, field.Name()))
		}
	case *ast.Ident:
		if obj := info.Uses[r]; obj != nil {
			return lockID("local:" + obj.Name())
		}
	}
	return ""
}

// addEdge records one lock-order observation (deduplicated per
// from/to/position).
func (st *ldState) addEdge(from, to lockID, pkg *Package, node ast.Node, detail string) {
	key := fmt.Sprintf("%s→%s@%v", from, to, node.Pos())
	if st.edgeSeen[key] {
		return
	}
	st.edgeSeen[key] = true
	st.edges = append(st.edges, ldOrderEdge{from: from, to: to, pkg: pkg, node: node, detail: detail})
}

// reportCycles reports every A→B / B→A pair once, at both sites.
func (st *ldState) reportCycles(p *ProgramPass) {
	byPair := map[string][]ldOrderEdge{}
	for _, e := range st.edges {
		byPair[string(e.from)+"→"+string(e.to)] = append(byPair[string(e.from)+"→"+string(e.to)], e)
	}
	seenPair := map[string]bool{}
	for _, e := range st.edges {
		rev := string(e.to) + "→" + string(e.from)
		if len(byPair[rev]) == 0 {
			continue
		}
		a, b := string(e.from), string(e.to)
		pairKey := a + "/" + b
		if b < a {
			pairKey = b + "/" + a
		}
		if seenPair[pairKey] {
			continue
		}
		seenPair[pairKey] = true
		p.ReportNodef(e.pkg, e.node,
			"inconsistent lock order: %s is acquired before %s here, but the reverse order also exists (%s; reverse: %s)",
			e.from, e.to, e.detail, byPair[rev][0].detail)
	}
}

// isIndirectCall reports whether call invokes a function value (not a
// static function, method, builtin, or type conversion).
func (st *ldState) isIndirectCall(f *FuncNode, call *ast.CallExpr) bool {
	info := f.Pkg.Info
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.FuncLit:
		return false // analyzed as its own node; body visible
	default:
		return false // conversions like (func())(x), rare
	}
	switch obj := info.Uses[id].(type) {
	case *types.Func:
		return false // static call or interface method
	case *types.Builtin, *types.TypeName, *types.Nil:
		return false
	case *types.Var:
		// A variable or field of function type: indirect.
		_, isSig := obj.Type().Underlying().(*types.Signature)
		return isSig
	case nil:
		return false
	default:
		return false
	}
}

// blockingCall matches calls that block by definition.
func blockingCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	pkg := pkgPathOf(fn)
	name := fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	recvName := ""
	if sig != nil && sig.Recv() != nil {
		recvName = namedTypeName(sig.Recv().Type())
	}
	switch {
	case pkg == "sync" && recvName == "WaitGroup" && name == "Wait":
		return "sync.WaitGroup.Wait", true
	case pkg == "sync" && recvName == "Cond" && name == "Wait":
		return "sync.Cond.Wait", true
	case pkg == "time" && name == "Sleep":
		return "time.Sleep", true
	case (name == "Run" || name == "RunContext" || name == "Solve" || name == "SolveContext") &&
		(recvName == "Engine" || recvName == "Server" || recvName == "Fabric"):
		return recvName + "." + name + " run loop", true
	}
	return "", false
}

// isLockName / isUnlockName classify sync method names.
func isLockName(n string) bool {
	return n == "Lock" || n == "RLock" || n == "TryLock" || n == "TryRLock"
}
func isUnlockName(n string) bool { return n == "Unlock" || n == "RUnlock" }

// calledName returns the method/function name of a call.
func calledName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// derefType unwraps one level of pointer.
func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// shortPkg keeps the last path segment for readable lock IDs.
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
