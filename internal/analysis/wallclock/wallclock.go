// Package wallclock forbids direct wall-clock access in internal packages.
//
// The simulation plane replays workloads in virtual time: every internal
// component takes a clock.Clock (PR 4 introduced the abstraction for
// deterministic re-execution). A single stray time.Now or time.Sleep makes
// a run irreproducible, so the time package's clock-reading and timer
// functions are banned everywhere under internal/ except internal/clock
// itself, which wraps them — and so are the OS-level waits that would do
// the same job behind the time package's back (syscall.Nanosleep,
// syscall.Select): how the runtime plane waits is internal/clock's
// decision alone. Tests and non-internal binaries (cmd/..., experiments)
// measure real elapsed time and are exempt.
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
		"time package's clock and timer functions or wait in the OS\n" +
		"(syscall.Nanosleep, syscall.Select); _test.go files and\n" +
		"non-internal packages are exempt.",
	Run: run,
}

// banned is the set of package-level functions, by package, that read the
// wall clock, arm real timers or wait in the kernel. Pure data types
// (time.Duration, time.Time arithmetic) stay allowed, and so do methods that
// happen to share a name: time.Time.After is a comparison, not time.After.
var banned = map[string]map[string]bool{
	"time": {
		"Now":       true,
		"Sleep":     true,
		"After":     true,
		"AfterFunc": true,
		"NewTimer":  true,
		"NewTicker": true,
		"Tick":      true,
		"Since":     true,
		"Until":     true,
	},
	"syscall": {
		"Nanosleep": true,
		"Select":    true,
	},
}

// why completes the diagnostic for a banned function of each package.
var why = map[string]string{
	"time":    "reads the wall clock; inject a clock.Clock so simulation stays deterministic",
	"syscall": "waits in the OS behind the clock seam; sleep through a clock.Clock (only internal/clock decides how the wall clock waits)",
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
			if !ok || fn.Pkg() == nil || !banned[fn.Pkg().Path()][fn.Name()] {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // a method (t.After(u)), not the package-level function
			}
			pass.Reportf(sel.Pos(), "%s.%s %s", fn.Pkg().Path(), fn.Name(), why[fn.Pkg().Path()])
			return true
		})
	}
	return nil
}
