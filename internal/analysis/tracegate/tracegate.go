// Package tracegate protects the hot-path allocation budget from
// formatting calls.
//
// The invoke path holds an allocation ceiling (TestInvokeAllocsCeiling);
// fmt.Sprintf, fmt.Errorf and non-constant string concatenation each
// allocate even when the result is discarded. Files on the budget opt in
// with a //repolint:hotpath pragma; inside them, fmt.Errorf may only sit
// on a cold error path (an expression returned directly or handed to a
// fail()/panic call), and any other formatting is reported — no guard
// condition exempts it. Formatting that runs once per container or per
// setup carries a justified //repolint:ignore.
package tracegate

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tracegate",
	Doc: "flag ungated formatting in declared hot-path files\n\n" +
		"In files carrying //repolint:hotpath, fmt.Sprintf/Sprint and\n" +
		"non-constant string concatenation are reported, and fmt.Errorf\n" +
		"must flow straight into an error return or fail()/panic call,\n" +
		"protecting the per-request allocation budget.",
	Run: run,
}

var formatFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if !analysis.FileHasPragma(f, "hotpath") {
			continue
		}
		analysis.Inspect(f, func(n ast.Node, path []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				name := fmtFormatCall(pass, n)
				if name == "" {
					return true
				}
				if name == "Errorf" && coldPath(path) {
					return true
				}
				pass.Reportf(n.Pos(), "fmt.%s allocates on a declared hot-path file; move it off the hot path", name)
			case *ast.BinaryExpr:
				if !isNonConstStringConcat(pass, n) {
					return true
				}
				// ((a+b)+c): report only the outermost concat of a chain.
				if len(path) > 0 {
					if parent, ok := path[len(path)-1].(*ast.BinaryExpr); ok && isNonConstStringConcat(pass, parent) {
						return true
					}
				}
				pass.Reportf(n.Pos(), "string concatenation allocates on a declared hot-path file; build the key with the preallocated writer")
			}
			return true
		})
	}
	return nil
}

// fmtFormatCall returns the fmt formatting function the call targets
// (Sprintf, Errorf, ...) or "".
func fmtFormatCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || !formatFuncs[fn.Name()] {
		return ""
	}
	return fn.Name()
}

// isNonConstStringConcat reports whether e is a + over strings that is not
// folded at compile time.
func isNonConstStringConcat(pass *analysis.Pass, e *ast.BinaryExpr) bool {
	if e.Op != token.ADD {
		return false
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// coldPath reports whether the expression flows straight into an error
// exit: a return statement, or a call to a fail()/panic sink.
func coldPath(path []ast.Node) bool {
	for _, anc := range path {
		switch anc := anc.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.CallExpr:
			switch fun := anc.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" || strings.HasPrefix(fun.Name, "fail") {
					return true
				}
			case *ast.SelectorExpr:
				if strings.HasPrefix(fun.Sel.Name, "fail") || strings.HasPrefix(fun.Sel.Name, "Fail") {
					return true
				}
			}
		}
	}
	return false
}
