package repolint

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestTreeIsRepolintClean is the regression gate: the repository's own
// packages must type-check and carry zero unsuppressed findings from the
// full suite. Any new violation (or an ignore directive missing its
// justification) fails this test before it reaches CI's vet run.
func TestTreeIsRepolintClean(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.ImportPath] = true
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.ImportPath, terr)
		}
		for _, d := range analysis.RunAnalyzers(&p.Unit, Analyzers) {
			t.Errorf("%s: [%s] %s", p.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	// Sanity-check the load actually covered the planes the suite guards;
	// a silently narrowed pattern would make this test vacuous.
	for _, want := range []string{"repro/internal/core", "repro/internal/wmm", "repro/internal/simcluster", "repro/internal/clock"} {
		if !seen[want] {
			t.Errorf("tree load missed %s", want)
		}
	}
}

// TestEveryInternalPackageIsImported fails on an internal package that only
// tests reach: each must be imported by at least one non-test package of
// the module. analysistest, the analyzers' fixture harness, is the one
// test-helper package and is exempt.
func TestEveryInternalPackageIsImported(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	imported := map[string]bool{"repro/internal/analysis/analysistest": true}
	for _, p := range pkgs {
		for _, imp := range p.Pkg.Imports() { // a source-checked package's own import list
			imported[imp.Path()] = true
		}
	}
	for _, p := range pkgs {
		if strings.HasPrefix(p.ImportPath, "repro/internal/") && !imported[p.ImportPath] {
			t.Errorf("%s is imported by no non-test package", p.ImportPath)
		}
	}
}

// TestNoTestOnlyExports fails on a name under internal/ that only tests
// reach (testonly_test.go has the rules): delete it, give it a non-test
// caller, or mark it "//repolint:testseam <reason>". analysistest, the
// analyzers' fixture harness, is exempt as a whole.
func TestNoTestOnlyExports(t *testing.T) {
	pkgs, err := analysis.Load("../../..", "./...")
	if err != nil {
		t.Fatalf("loading tree: %v", err)
	}
	var tree []*analysis.LoadedPackage
	for _, p := range pkgs {
		if p.ImportPath != "repro/internal/analysis/analysistest" {
			tree = append(tree, p)
		}
	}
	for _, f := range testOnlyNames(tree, "repro/internal/") {
		t.Error(f)
	}
}

// TestSuiteNamesAreUnique guards the flag/directive namespace.
func TestSuiteNamesAreUnique(t *testing.T) {
	names := map[string]bool{}
	for _, a := range Analyzers {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing a name, doc or run function", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		if a.Name != strings.ToLower(a.Name) || strings.ContainsAny(a.Name, " \t") {
			t.Errorf("analyzer name %q must be lower-case with no spaces", a.Name)
		}
		names[a.Name] = true
	}
}
