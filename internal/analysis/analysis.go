// Package analysis is the repository's own static-analysis layer: a
// stdlib-only analyzer driver (go/ast + go/parser + go/types, no
// golang.org/x/tools dependency) with repo-specific invariant checks.
//
// The checks encode, at compile/CI time, the conventions the runtime
// layers otherwise enforce only dynamically or by discipline:
//
//   - nodeterminism — the deterministic-replay core (fault schedules,
//     superstep checkpoints, cycle accounting) must not consume
//     wall-clock time, the global math/rand state, or unordered map
//     iteration in internal/ipu, internal/poplar, internal/faultinject
//     and internal/serve.
//   - ctxflow — context.Context is threaded, not invented: no
//     context.Background()/TODO() inside library packages (outside
//     single-statement convenience wrappers), no accepted-but-ignored
//     ctx parameters, and *Context entry points lead with ctx.
//   - errdiscipline — sentinel errors are compared with errors.Is,
//     wrapping uses %w, and error returns are not silently discarded.
//   - noatomics — paper constraint C1: codelets (vertex callbacks in
//     internal/poplar) must not touch sync/atomic, write shared
//     captured variables, or spawn goroutines.
//   - leakygo — every goroutine launch must carry a visible lifecycle:
//     a channel/WaitGroup/context in its body, or a WaitGroup.Add
//     immediately before the launch.
//
// Copies of values holding sync locks or sync/atomic types are left to
// go vet's copylocks check, which CI runs next to this suite.
//
// cmd/hunipulint is the command-line driver; golden-file fixtures under
// testdata/ pin each check's behaviour.
//
// Findings on a line annotated (same line or the line above) with
//
//	//hunipulint:ignore check1,check2 reason...
//
// are suppressed for the named checks only; the reason is mandatory so
// suppressions stay auditable.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// Finding is one diagnostic. The JSON shape {file, line, col, endLine,
// check, message} is the tool-consumption contract of `hunipulint
// -json`; col and endLine also feed the SARIF region so PR annotations
// can underline the offending range rather than a bare line.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	EndLine int    `json:"endLine"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Check, f.Message)
}

// Analyzer is one named check. Exactly one of Run (per-package
// syntactic tier) or RunProgram (whole-program dataflow tier) is set.
type Analyzer struct {
	// Name is the check identifier used in findings and ignore
	// directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(p *Pass)
	// RunProgram inspects the whole program (all packages plus the
	// call graph) and reports findings through the program pass.
	RunProgram func(p *ProgramPass)
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path; analyzers scope themselves by it.
	Path string
	// Fset maps positions for all Files.
	Fset *token.FileSet
	// Files are the parsed non-test sources.
	Files []*ast.File
	// Info holds type-checker facts for every expression in Files.
	Info *types.Info
	// Types is the checked package object.
	Types *types.Package

	ignores    map[string]map[int][]string // file → line → suppressed checks
	directives map[string]map[int][]string // file → line → function directives
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos unless an ignore directive
// suppresses this check on that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	report(p.Pkg, p.analyzer, p.findings, pos, token.NoPos, format, args...)
}

// ReportNodef records a finding spanning node's source range.
func (p *Pass) ReportNodef(node ast.Node, format string, args ...any) {
	report(p.Pkg, p.analyzer, p.findings, node.Pos(), node.End(), format, args...)
}

// report is the shared suppression-aware finding constructor. end may
// be token.NoPos, in which case the finding covers a single line.
func report(pkg *Package, a *Analyzer, findings *[]Finding, pos, end token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if pkg.suppressed(a.Name, position) {
		return
	}
	endLine := position.Line
	if end.IsValid() {
		if e := pkg.Fset.Position(end); e.Filename == position.Filename && e.Line > endLine {
			endLine = e.Line
		}
	}
	*findings = append(*findings, Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		EndLine: endLine,
		Check:   a.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Program is the whole-program view handed to dataflow-tier analyzers:
// every loaded package plus the types-resolved call graph across them.
type Program struct {
	Pkgs []*Package
	CG   *CallGraph
}

// BuildProgram assembles the program view for pkgs, building ignore
// and function-directive indexes along the way.
func BuildProgram(pkgs []*Package) *Program {
	for _, pkg := range pkgs {
		pkg.buildIgnores()
	}
	return &Program{Pkgs: pkgs, CG: BuildCallGraph(pkgs)}
}

// ProgramPass carries one dataflow analyzer's run over a program.
type ProgramPass struct {
	Prog     *Program
	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos inside pkg (suppression-aware).
func (p *ProgramPass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	report(pkg, p.analyzer, p.findings, pos, token.NoPos, format, args...)
}

// ReportNodef records a finding spanning node's range inside pkg.
func (p *ProgramPass) ReportNodef(pkg *Package, node ast.Node, format string, args ...any) {
	report(pkg, p.analyzer, p.findings, node.Pos(), node.End(), format, args...)
}

// TypeOf is a nil-safe shorthand for the type of an expression.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier's object (nil when unresolved).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// Analyzers returns the full check suite in deterministic order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		CtxFlow,
		ErrDiscipline,
		NoAtomics,
		LeakyGo,
		CycleCharge,
		LockDiscipline,
		HotAlloc,
	}
}

// Run applies every analyzer to every package and returns the combined
// findings sorted by (file, line, check). Per-package analyzers run
// first; if any dataflow-tier analyzer is selected, the call graph is
// built once and shared across them.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	var programTier []*Analyzer
	for _, pkg := range pkgs {
		pkg.buildIgnores()
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			programTier = append(programTier, a)
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{Pkg: pkg, analyzer: a, findings: &findings})
		}
	}
	if len(programTier) > 0 {
		prog := BuildProgram(pkgs)
		for _, a := range programTier {
			a.RunProgram(&ProgramPass{Prog: prog, analyzer: a, findings: &findings})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return findings
}

// WriteText renders findings one per line in file:line form.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders findings as a JSON array of {file, line, check,
// message} objects (an empty slice renders as [], never null).
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// ignorePrefix introduces a suppression directive comment.
const ignorePrefix = "//hunipulint:ignore"

// buildIgnores indexes every //hunipulint:ignore directive. A
// directive suppresses the named checks on its own line and on the
// line directly below it (so it can sit above the flagged statement).
func (pkg *Package) buildIgnores() {
	if pkg.ignores != nil {
		return
	}
	pkg.ignores = map[string]map[int][]string{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					// No reason given: the directive is ignored, so the
					// finding it meant to suppress still surfaces.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := pkg.ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					pkg.ignores[pos.Filename] = byLine
				}
				checks := strings.Split(fields[0], ",")
				byLine[pos.Line] = append(byLine[pos.Line], checks...)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], checks...)
			}
		}
	}
}

// suppressed reports whether check is ignored at position.
func (pkg *Package) suppressed(check string, pos token.Position) bool {
	for _, c := range pkg.ignores[pos.Filename][pos.Line] {
		if c == check {
			return true
		}
	}
	return false
}

// --- shared type/AST helpers used by several checks ---

// isPkgCall reports whether call is pkgPath.funcName(...), resolved
// through the type checker (so aliased imports are still caught).
func isPkgCall(p *Pass, call *ast.CallExpr, pkgPath string, funcNames ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := p.Pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	// Package-level functions only: methods have a receiver.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return false
	}
	for _, n := range funcNames {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

// isMapType reports whether t is (or aliases) a map type.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// pathHasPrefix reports whether an import path equals prefix or is a
// sub-package of it.
func pathHasPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}
