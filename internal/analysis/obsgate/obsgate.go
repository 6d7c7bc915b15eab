// Package obsgate keeps registry lookups off the declared hot paths.
//
// The obs registry is a locked map: Registry.Counter/Histogram are
// get-or-create under an RWMutex, and Snapshot copies every instrument.
// The metrics plane stays cheap enough to leave on only because hot-path
// code never touches the registry — each package resolves its instrument
// pointers once, at init, in a non-hotpath obs.go, and the per-event cost
// is a padded atomic add. Files on the allocation budget opt in with the
// //repolint:hotpath pragma; inside them, any obs.Registry method use
// (and the obs.Default()/obs.NewRegistry() accessors that produce one) is
// flagged. Instrument method calls (Counter.Add, Histogram.Observe, ...)
// are the intended hot-path surface and pass freely.
package obsgate

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "obsgate",
	Doc: "flag obs registry lookups in declared hot-path files\n\n" +
		"In files carrying //repolint:hotpath, methods of obs.Registry\n" +
		"(locked map lookups) and the obs.Default()/obs.NewRegistry()\n" +
		"accessors may not be used; resolve instrument pointers once at\n" +
		"setup and keep them.",
	Run: run,
}

const obsPath = "repro/internal/obs"

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if !analysis.FileHasPragma(f, "hotpath") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != obsPath {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				return true
			}
			if recv := sig.Recv(); recv != nil {
				if named := namedRecv(recv.Type()); named != nil && named.Obj().Name() == "Registry" {
					pass.Reportf(sel.Pos(), "obs.Registry.%s is a locked registry lookup on a declared hot-path file; resolve the instrument once at setup and keep the pointer", fn.Name())
				}
				return true
			}
			if fn.Name() == "Default" || fn.Name() == "NewRegistry" {
				pass.Reportf(sel.Pos(), "obs.%s reaches the registry on a declared hot-path file; resolve instruments once at setup (a non-hotpath obs.go) and keep the pointers", fn.Name())
			}
			return true
		})
	}
	return nil
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
