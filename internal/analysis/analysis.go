package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. The shape deliberately mirrors
// golang.org/x/tools/go/analysis so the suite could migrate to the upstream
// framework wholesale if the dependency ever becomes available; until then
// the driver (load.go, unitchecker.go) is standard-library only.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, command-line flags and
	// //repolint:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `repolint help`.
	Doc string
	// Run inspects one type-checked package and reports findings through
	// pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned in the package's file set.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Unit is one type-checked package handed to the analyzers: the common
// currency of the standalone loader (load.go), the vet-tool protocol
// (unitchecker.go) and the fixture harness (analysistest.go).
type Unit struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// RunAnalyzers runs every analyzer over the unit, applies the
// //repolint:ignore directives, and returns the surviving diagnostics in
// file-position order. Analyzer runtime errors are surfaced as diagnostics
// at the package clause rather than aborting the other analyzers.
func RunAnalyzers(u *Unit, analyzers []*Analyzer) []Diagnostic {
	ignores := collectIgnores(u.Fset, u.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.Fset,
			Files:     u.Files,
			Pkg:       u.Pkg,
			TypesInfo: u.Info,
		}
		if err := a.Run(pass); err != nil {
			pos := token.NoPos
			if len(u.Files) > 0 {
				pos = u.Files[0].Package
			}
			out = append(out, Diagnostic{Pos: pos, Analyzer: a.Name,
				Message: fmt.Sprintf("analyzer failed: %v", err)})
			continue
		}
		out = append(out, ignores.filter(u.Fset, pass.diags)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := u.Fset.Position(out[i].Pos), u.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// ---- suppression directives ----
//
// A finding is suppressed by a justified directive on the flagged line or on
// the line directly above it:
//
//	x.doRacyThing() //repolint:ignore lockheld the close protocol needs the send under dluMu
//
//	//repolint:ignore wallclock benchmark drivers measure real elapsed time
//	start := time.Now()
//
// The justification is mandatory: an ignore without one does not suppress,
// it annotates the finding so the omission is visible in CI output.

const ignorePrefix = "//repolint:ignore"

// ignoreDirective is one parsed //repolint:ignore comment.
type ignoreDirective struct {
	analyzer      string
	justification string
}

// ignoreIndex maps file -> line -> directives attached to that line.
type ignoreIndex map[string]map[int][]ignoreDirective

func collectIgnores(fset *token.FileSet, files []*ast.File) ignoreIndex {
	idx := ignoreIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
				name, justification, _ := strings.Cut(rest, " ")
				if name == "" {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = map[int][]ignoreDirective{}
					idx[pos.Filename] = byLine
				}
				d := ignoreDirective{analyzer: name, justification: strings.TrimSpace(justification)}
				// The directive covers its own line (trailing-comment form)
				// and the next line (preceding-comment form).
				byLine[pos.Line] = append(byLine[pos.Line], d)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
			}
		}
	}
	return idx
}

// filter drops diagnostics covered by a justified directive; an unjustified
// directive keeps the diagnostic and annotates it.
func (idx ignoreIndex) filter(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed, unjustified := false, false
		for _, dir := range idx[pos.Filename][pos.Line] {
			if dir.analyzer != d.Analyzer {
				continue
			}
			if dir.justification != "" {
				suppressed = true
				break
			}
			unjustified = true
		}
		if suppressed {
			continue
		}
		if unjustified {
			d.Message += " (the repolint:ignore directive needs a justification to suppress this)"
		}
		out = append(out, d)
	}
	return out
}

// ---- file pragmas ----

// FileHasPragma reports whether the file carries a //repolint:<name> marker
// comment (e.g. //repolint:hotpath declaring an allocation-budgeted file).
func FileHasPragma(f *ast.File, name string) bool {
	want := "//repolint:" + name
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
				return true
			}
		}
	}
	return false
}
