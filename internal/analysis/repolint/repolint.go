// Package repolint registers the repository's analyzer suite. It exists
// separately from internal/analysis so the framework does not import the
// analyzers (which import the framework), and so cmd/repolint and the
// tree-wide regression test share one canonical list.
package repolint

import (
	"repro/internal/analysis"
	"repro/internal/analysis/atomicmix"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockheld"
	"repro/internal/analysis/wallclock"
	"repro/internal/analysis/wiregate"
)

// Analyzers is the suite cmd/repolint runs, in diagnostic-name order.
var Analyzers = []*analysis.Analyzer{
	atomicmix.Analyzer,
	hotpath.Analyzer,
	lockheld.Analyzer,
	wallclock.Analyzer,
	wiregate.Analyzer,
}
