// Package wallclock forbids direct wall-clock access in internal packages.
//
// The simulation plane replays workloads in virtual time: every internal
// component takes a clock.Clock (PR 4 introduced the abstraction for
// deterministic re-execution). A single stray time.Now or time.Sleep makes
// a run irreproducible, so the time package's clock-reading and timer
// functions are banned everywhere under internal/ except internal/clock
// itself, which wraps them. Tests and non-internal binaries (cmd/...,
// experiments) measure real elapsed time and are exempt.
package wallclock

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc: "forbid direct time.Now/Sleep/After/timer use outside internal/clock\n\n" +
		"Internal packages must take a clock.Clock so simulated runs stay\n" +
		"deterministic in virtual time. Only internal/clock may touch the\n" +
		"time package's clock and timer functions; _test.go files and\n" +
		"non-internal packages are exempt.",
	Run: run,
}

// banned is the set of package-level time functions that read the wall
// clock or arm real timers. Pure data types (time.Duration, time.Time
// arithmetic) stay allowed, and so do methods that happen to share a name:
// time.Time.After is a comparison, not time.After.
var banned = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	if !strings.Contains(path, "internal/") {
		return nil // cmd/, experiments/: real time is the point
	}
	if strings.HasSuffix(path, "internal/clock") {
		return nil // the one package allowed to wrap the wall clock
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // a method (t.After(u)), not the package-level function
			}
			pass.Reportf(sel.Pos(), "time.%s reads the wall clock; inject a clock.Clock so simulation stays deterministic", fn.Name())
			return true
		})
	}
	return nil
}
