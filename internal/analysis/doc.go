// Package analysis is a standard-library-only static-analysis framework
// that enforces this repository's concurrency and determinism invariants.
//
// Lock striping, atomic snapshot publication, virtual-time simulation, a
// lookup-free metrics hot path and a versioned wire format carry
// invariants that would otherwise exist only in review discipline. This
// package turns them into machine-checked analyzers:
//
//   - wallclock: internal packages must go through internal/clock, never
//     the time package directly, so simulation stays deterministic.
//   - atomicmix: a field accessed through sync/atomic anywhere must be
//     accessed through sync/atomic everywhere (outside constructors).
//   - lockheld: no channel operations, WaitGroup waits, or blocking I/O
//     while a sync.Mutex/RWMutex acquired in the same function is held.
//   - hotpath: in declared hot-path files (//repolint:hotpath), no fmt
//     formatting or string concatenation except fmt.Errorf on a cold error
//     path, protecting the allocation budget, and no obs.Registry lookups;
//     they resolve instrument pointers once, at init.
//   - wiregate: the //wire:struct declarations must match the fingerprint
//     pinned for the package's FrameVersion.
//
// The Analyzer/Pass API deliberately mirrors golang.org/x/tools/go/analysis
// so the suite could migrate wholesale if that dependency became available;
// the drivers here are built on go/parser, go/types and the gc export-data
// importer only. Packages are loaded either standalone via `go list
// -export -deps -json` (load.go) or through the `go vet -vettool=` config
// protocol (unitchecker.go); both run fully offline against the build
// cache.
//
// Findings are suppressed with an inline directive carrying a mandatory
// justification:
//
//	ch <- v //repolint:ignore lockheld close-protocol send must stay under mu
//
// An unjustified directive does not suppress — it annotates the finding so
// the omission is visible in CI. File pragma //repolint:hotpath opts a file
// into hotpath.
//
// The concrete analyzers live in subpackages (one each), the registry used
// by cmd/repolint and the tree-wide regression test in
// internal/analysis/repolint, and the fixture test harness in
// internal/analysis/analysistest.
package analysis
