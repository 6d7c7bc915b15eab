package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// This file is the standalone package loader: it resolves packages and
// their dependencies' compiled export data with `go list -export -deps
// -json` (offline: the data comes from the local build cache) and
// type-checks the matched packages from source with the standard library's
// gc-export importer. It is what `repolint ./...` and the tree-wide
// regression test use; `go vet -vettool=` hands us the same information
// through its config-file protocol instead (unitchecker.go).

// LoadedPackage is one source-checked package ready for analysis.
type LoadedPackage struct {
	Unit
	ImportPath string
	Dir        string
	// TypeErrors collects type-checking problems. Analysis still runs on
	// the partially checked package; the driver decides whether to surface
	// them (the repo's own tree must check clean).
	TypeErrors []error
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Error      *struct{ Err string }
}

// goList runs `go list -export -deps -json` in dir for the patterns and
// decodes the package stream.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup over the export files go list
// reported (import path -> compiled export data).
func exportLookup(pkgs []*listPackage) func(path string) (io.ReadCloser, error) {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// Load resolves the patterns in dir and returns the matched packages
// type-checked from source. Dependencies (including the standard library)
// are resolved from compiled export data, so loading needs no network and
// no GOPATH-mode source layout.
func Load(dir string, patterns ...string) ([]*LoadedPackage, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	lookup := exportLookup(pkgs)
	var out []*LoadedPackage
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || p.Name == "" {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", p.ImportPath)
		}
		lp, err := checkPackage(p.ImportPath, p.Dir, p.GoFiles, lookup)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
	}
	return out, nil
}

// checkPackage parses and type-checks one package's files.
func checkPackage(importPath, dir string, goFiles []string, lookup func(string) (io.ReadCloser, error)) (*LoadedPackage, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range goFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	lp := &LoadedPackage{ImportPath: importPath, Dir: dir}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { lp.TypeErrors = append(lp.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, _ := conf.Check(importPath, fset, files, info) // errors collected above
	lp.Unit = Unit{Fset: fset, Files: files, Pkg: pkg, Info: info}
	return lp, nil
}

// CheckSource type-checks an in-situ package from explicit source files,
// resolving imports (and their closure) from local export data. It serves
// the fixture harness (analysistest.go): fixture packages live under
// testdata where go list does not reach, so the caller names the import
// path the package should be checked as — path-sensitive analyzers
// (wallclock's internal/clock exemption) are tested by varying it.
//
//repolint:testseam the analyzer fixture tests type-check their testdata packages through it
func CheckSource(importPath, dir string, goFiles []string, deps []string) (*LoadedPackage, error) {
	var lookup func(string) (io.ReadCloser, error)
	if len(deps) > 0 {
		pkgs, err := goList(dir, deps)
		if err != nil {
			return nil, err
		}
		lookup = exportLookup(pkgs)
	} else {
		lookup = func(path string) (io.ReadCloser, error) {
			return nil, fmt.Errorf("fixture package imports %q but declared no deps", path)
		}
	}
	return checkPackage(importPath, dir, goFiles, lookup)
}
