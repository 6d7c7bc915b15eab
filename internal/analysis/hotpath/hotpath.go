// Package hotpath holds the declared hot-path files to their budget.
//
// Files on the per-request allocation and lock budget opt in with a
// //repolint:hotpath pragma. Inside them, two rule sets apply, checked in
// one walk of each such file:
//
//   - Formatting. The invoke path holds an allocation ceiling
//     (TestInvokeAllocsCeiling); fmt.Sprintf, fmt.Errorf and non-constant
//     string concatenation each allocate even when the result is discarded.
//     fmt.Errorf may only sit on a cold error path (an expression returned
//     directly or handed to a fail()/panic call); any other formatting is
//     reported — no guard condition exempts it.
//   - Registry lookups. The obs registry is a locked map:
//     Registry.Counter/Histogram are get-or-create under an RWMutex, and
//     Snapshot copies every instrument. The metrics plane stays cheap
//     enough to leave on only because hot-path code never touches the
//     registry — each package resolves its instrument pointers once, at
//     init, in a non-hotpath obs.go, and the per-event cost is a padded
//     atomic add. Any obs.Registry method use, and the
//     obs.Default()/obs.NewRegistry() accessors that produce one, is
//     reported. Instrument methods (Counter.Add, Histogram.Observe, ...)
//     are the intended hot-path surface and pass freely.
//
// Formatting or a lookup that runs once per container or per setup carries
// a justified //repolint:ignore hotpath.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "flag formatting and obs registry lookups in declared hot-path files\n\n" +
		"In files carrying //repolint:hotpath, fmt.Sprintf/Sprint and\n" +
		"non-constant string concatenation are reported, fmt.Errorf must\n" +
		"flow straight into an error return or fail()/panic call, and\n" +
		"methods of obs.Registry (locked map lookups) and the\n" +
		"obs.Default()/obs.NewRegistry() accessors may not be used:\n" +
		"resolve instrument pointers once at setup and keep them.",
	Run: run,
}

var formatFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
}

const obsPath = "repro/internal/obs"

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
			case *ast.SelectorExpr:
				registryUse(pass, n)
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

// registryUse reports sel if it names an obs.Registry method or one of the
// accessors that produce a registry.
func registryUse(pass *analysis.Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if recv := sig.Recv(); recv != nil {
		if named := namedRecv(recv.Type()); named != nil && named.Obj().Name() == "Registry" {
			pass.Reportf(sel.Pos(), "obs.Registry.%s is a locked registry lookup on a declared hot-path file; resolve the instrument once at setup and keep the pointer", fn.Name())
		}
		return
	}
	if fn.Name() == "Default" || fn.Name() == "NewRegistry" {
		pass.Reportf(sel.Pos(), "obs.%s reaches the registry on a declared hot-path file; resolve instruments once at setup (a non-hotpath obs.go) and keep the pointers", fn.Name())
	}
}

// namedRecv unwraps a method receiver type (possibly a pointer) to its
// named type.
func namedRecv(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
