// Package atomicmix flags struct fields that are accessed through
// sync/atomic in one place and by plain read/write in another.
//
// The engine publishes snapshots and counters through sync/atomic (lock-free
// request state, striped counters, the in-flight gate). A field is either always atomic or never atomic:
// one plain read of an atomically-written field is a data race the race
// detector only catches if a test happens to interleave it. Constructors (New*, init) may
// still initialize fields plainly before the value is published.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc: "flag fields accessed both atomically and by plain read/write\n\n" +
		"A field touched via sync/atomic anywhere must be accessed via\n" +
		"sync/atomic everywhere outside constructors; mixing the two is a\n" +
		"data race. Fields of atomic.* types must be used through their\n" +
		"methods, never copied or reassigned wholesale.",
	Run: run,
}

// fieldAccess is one syntactic use of a struct field.
type fieldAccess struct {
	sel           *ast.SelectorExpr
	obj           *types.Var
	inConstructor bool
	addressTaken  bool // &x.f — pointer handed elsewhere, not a direct read/write
}

func run(pass *analysis.Pass) error {
	atomicFields := map[*types.Var]bool{} // fields reached via atomic.Load*/Store*/...
	exempt := map[*ast.SelectorExpr]bool{}
	var accesses []fieldAccess

	for _, f := range pass.Files {
		analysis.Inspect(f, func(n ast.Node, path []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// atomic.AddInt64(&x.f, 1) and friends: arg 0 is the address.
				if callsAtomicFunc(pass, n) && len(n.Args) > 0 {
					if sel, obj := addressedField(pass, n.Args[0]); obj != nil {
						atomicFields[obj] = true
						exempt[sel] = true
					}
				}
			case *ast.SelectorExpr:
				obj := fieldObject(pass, n)
				if obj == nil {
					return true
				}
				if isAtomicType(obj.Type()) {
					checkAtomicTypedUse(pass, n, path)
					return true
				}
				accesses = append(accesses, fieldAccess{
					sel:           n,
					obj:           obj,
					inConstructor: inConstructor(path),
					addressTaken:  parentIsAddrOf(n, path),
				})
			}
			return true
		})
	}

	for _, a := range accesses {
		if !atomicFields[a.obj] || exempt[a.sel] || a.inConstructor || a.addressTaken {
			continue
		}
		pass.Reportf(a.sel.Pos(),
			"field %s is accessed via sync/atomic elsewhere but read/written plainly here; mixed access races",
			a.obj.Name())
	}
	return nil
}

// callsAtomicFunc reports whether the call targets a sync/atomic
// package-level function (Load*/Store*/Add*/Swap*/CompareAndSwap*).
func callsAtomicFunc(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil
}

// addressedField unwraps &x.f to the selector and its struct-field object.
func addressedField(pass *analysis.Pass, arg ast.Expr) (*ast.SelectorExpr, *types.Var) {
	unary, ok := arg.(*ast.UnaryExpr)
	if !ok || unary.Op != token.AND {
		return nil, nil
	}
	sel, ok := unary.X.(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	return sel, fieldObject(pass, sel)
}

// fieldObject resolves a selector to the struct field it names, or nil.
func fieldObject(pass *analysis.Pass, sel *ast.SelectorExpr) *types.Var {
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !obj.IsField() {
		return nil
	}
	return obj
}

// isAtomicType reports whether t is one of sync/atomic's value types
// (atomic.Int64, atomic.Pointer[T], ...).
func isAtomicType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync/atomic"
}

// checkAtomicTypedUse flags uses of an atomic.*-typed field that bypass its
// methods: copying it or overwriting it wholesale defeats the atomicity.
func checkAtomicTypedUse(pass *analysis.Pass, sel *ast.SelectorExpr, path []ast.Node) {
	if len(path) == 0 {
		return
	}
	switch parent := path[len(path)-1].(type) {
	case *ast.SelectorExpr:
		return // x.f.Load() — method access
	case *ast.UnaryExpr:
		if parent.Op == token.AND {
			return // &x.f — passing the pointer keeps one instance
		}
	}
	pass.Reportf(sel.Pos(),
		"atomic-typed field %s must be used via its methods; copying or reassigning it is not atomic",
		sel.Sel.Name)
}

// inConstructor reports whether the access happens inside a constructor
// (New*/new* function or init), where the value is not yet published and
// plain initialization is fine.
func inConstructor(path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		if fd, ok := path[i].(*ast.FuncDecl); ok {
			name := fd.Name.Name
			return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
		}
	}
	return false
}

// parentIsAddrOf reports whether the selector's immediate parent takes its
// address (&x.f outside an atomic call: handing out the pointer, not a
// direct racy read/write — atomicity is then the callee's contract).
func parentIsAddrOf(sel *ast.SelectorExpr, path []ast.Node) bool {
	if len(path) == 0 {
		return false
	}
	unary, ok := path[len(path)-1].(*ast.UnaryExpr)
	return ok && unary.Op == token.AND && unary.X == sel
}
