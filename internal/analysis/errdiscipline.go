package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ErrDiscipline enforces the repository's typed-error conventions:
// sentinel errors are matched with errors.Is (never ==/!=), wrapping
// goes through fmt.Errorf's %w verb, and a call returning only an
// error is never used as a bare statement that drops the result.
var ErrDiscipline = &Analyzer{
	Name: "errdiscipline",
	Doc:  "errors.Is for sentinels, %w for wrapping, no silently discarded error returns",
	Run:  runErrDiscipline,
}

func runErrDiscipline(p *Pass) {
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				checkErrCompare(p, x)
			case *ast.CallExpr:
				checkErrorfWrap(p, x)
			case *ast.ExprStmt:
				checkDiscardedError(p, x)
			}
			return true
		})
	}
}

// checkErrCompare flags == / != between two non-nil error values.
// Comparing to nil is the ordinary success test and stays allowed.
func checkErrCompare(p *Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	x, y := p.Pkg.Info.Types[be.X], p.Pkg.Info.Types[be.Y]
	if x.IsNil() || y.IsNil() {
		return
	}
	if isErrorType(x.Type) || isErrorType(y.Type) {
		p.Reportf(be.OpPos,
			"error compared with %s; use errors.Is so wrapped errors still match", be.Op)
		return
	}
	// Comparing concrete typed-error values (*core.FabricError,
	// *faultinject.CorruptionError, ...) with == is pointer identity,
	// not fault-class equality: two distinct allocations of the same
	// fault compare unequal, and a wrapped instance never matches.
	if isConcreteErrorType(x.Type) || isConcreteErrorType(y.Type) {
		p.Reportf(be.OpPos,
			"typed error value compared with %s (pointer identity); use errors.Is or compare the fault class fields", be.Op)
	}
}

// isConcreteErrorType reports whether t is a non-interface type that
// implements error (typically a *SomethingError).
func isConcreteErrorType(t types.Type) bool {
	if t == nil || isErrorType(t) {
		return false
	}
	if _, isIface := t.Underlying().(*types.Interface); isIface {
		return false
	}
	return implementsError(t)
}

// checkErrorfWrap flags fmt.Errorf calls that receive an error
// argument but never use the %w verb, which silently severs the error
// chain that errors.Is/As walk.
func checkErrorfWrap(p *Pass, call *ast.CallExpr) {
	if !isPkgCall(p, call, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		t := p.TypeOf(arg)
		if t == nil {
			continue
		}
		if isErrorType(t) || (implementsError(t) && !isStringerOnly(t)) {
			p.Reportf(call.Pos(),
				"fmt.Errorf formats an error argument without %%w; the cause becomes unmatchable by errors.Is/As")
			return
		}
	}
}

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	errIface, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// isStringerOnly is a pragmatic escape: types whose Error method is
// merely a formatting helper rarely exist, so treat every error
// implementor as wrappable. Kept as a named hook for future tuning.
func isStringerOnly(types.Type) bool { return false }

// checkDiscardedError flags a bare statement calling a function whose
// only result is an error. Deferred calls are a different statement
// kind and are deliberately not flagged (defer f.Close() is idiomatic),
// and methods on strings.Builder / bytes.Buffer are exempt: their
// Write* signatures carry an error only to satisfy io interfaces and
// are documented to always return nil.
func checkDiscardedError(p *Pass, es *ast.ExprStmt) {
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	t := p.TypeOf(call)
	if t == nil || !isErrorType(t) {
		return
	}
	if isInfallibleWriter(p, call) {
		return
	}
	p.Reportf(es.Pos(), "call returns an error that is discarded; handle it or assign it explicitly")
}

// isInfallibleWriter reports whether call is a method on
// strings.Builder or bytes.Buffer, whose error results are always nil.
func isInfallibleWriter(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	t := p.TypeOf(sel.X)
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
