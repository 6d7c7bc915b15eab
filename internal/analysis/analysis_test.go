package analysis

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, f
}

// lineReporter flags the AST nodes whose source line the test targets,
// letting the directive machinery be exercised without a type-checked
// package.
func lineReporter(name string, lines ...int) *Analyzer {
	a := &Analyzer{Name: name, Doc: "test analyzer"}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if _, isBlock := n.(*ast.BlockStmt); isBlock {
					return true
				}
				stmt, ok := n.(ast.Stmt)
				if !ok {
					return true
				}
				line := pass.Fset.Position(stmt.Pos()).Line
				for _, want := range lines {
					if line == want {
						pass.Reportf(stmt.Pos(), "finding on line %d", line)
					}
				}
				return false // statements only, not their children
			})
		}
		return nil
	}
	return a
}

const directiveSrc = `package p

func f() {
	a := 1 //repolint:ignore check covered by the outer lock
	//repolint:ignore check the preceding-line form also suppresses
	b := 2
	//repolint:ignore check
	c := 3
	d := 4 //repolint:ignore other wrong analyzer name does not suppress
	_, _, _, _ = a, b, c, d
}
`

func TestIgnoreDirectives(t *testing.T) {
	fset, f := parseOne(t, directiveSrc)
	u := &Unit{Fset: fset, Files: []*ast.File{f}}
	diags := RunAnalyzers(u, []*Analyzer{lineReporter("check", 4, 6, 8, 9)})

	var got []string
	for _, d := range diags {
		got = append(got, fset.Position(d.Pos).String()+": "+d.Message)
	}
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), got)
	}
	// Line 8's directive lacks a justification: annotated, not suppressed.
	if fset.Position(diags[0].Pos).Line != 8 || !strings.Contains(diags[0].Message, "needs a justification") {
		t.Errorf("diag 0 = %s, want annotated line-8 finding", got[0])
	}
	// Line 9's directive names a different analyzer.
	if fset.Position(diags[1].Pos).Line != 9 || strings.Contains(diags[1].Message, "justification") {
		t.Errorf("diag 1 = %s, want untouched line-9 finding", got[1])
	}
}

func TestAnalyzerErrorBecomesDiagnostic(t *testing.T) {
	fset, f := parseOne(t, "package p\n")
	u := &Unit{Fset: fset, Files: []*ast.File{f}}
	boom := &Analyzer{Name: "boom", Doc: "always fails", Run: func(*Pass) error {
		return errors.New("kaput")
	}}
	diags := RunAnalyzers(u, []*Analyzer{boom})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "analyzer failed: kaput") {
		t.Fatalf("got %v, want one analyzer-failed diagnostic", diags)
	}
}

func TestDiagnosticsSortedByPosition(t *testing.T) {
	fset, f := parseOne(t, "package p\n\nfunc f() {\n\tx := 1\n\ty := 2\n\t_, _ = x, y\n}\n")
	u := &Unit{Fset: fset, Files: []*ast.File{f}}
	diags := RunAnalyzers(u, []*Analyzer{lineReporter("zz", 5), lineReporter("aa", 4, 5)})
	if len(diags) != 3 {
		t.Fatalf("got %d diagnostics, want 3", len(diags))
	}
	wantOrder := [][2]any{{4, "aa"}, {5, "aa"}, {5, "zz"}}
	for i, d := range diags {
		if fset.Position(d.Pos).Line != wantOrder[i][0] || d.Analyzer != wantOrder[i][1] {
			t.Errorf("diag %d = line %d %s, want line %d %s",
				i, fset.Position(d.Pos).Line, d.Analyzer, wantOrder[i][0], wantOrder[i][1])
		}
	}
}

func TestPragmas(t *testing.T) {
	_, hot := parseOne(t, "//repolint:hotpath\npackage p\n")
	if !FileHasPragma(hot, "hotpath") {
		t.Error("hotpath pragma not detected")
	}
	if FileHasPragma(hot, "hot") {
		t.Error("pragma prefix must not match a longer name")
	}
	_, plain := parseOne(t, "package p\n\n// repolint:hotpath spaced form is not a pragma\n")
	if FileHasPragma(plain, "hotpath") {
		t.Error("spaced comment wrongly detected as pragma")
	}
}
