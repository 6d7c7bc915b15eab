package analysis

import "go/ast"

// Inspect walks the tree rooted at root in depth-first order, calling fn
// with each node and the path of its ancestors (outermost first, root's
// ancestors empty). Returning false skips the node's children. Several
// analyzers need the ancestor path — hotpath to find an enclosing return
// or fail() call, atomicmix to find the enclosing function — which
// ast.Inspect alone does not provide.
func Inspect(root ast.Node, fn func(n ast.Node, path []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false // children skipped; ast.Inspect sends no pop event
		}
		stack = append(stack, n)
		return true
	})
}
