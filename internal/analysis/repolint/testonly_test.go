package repolint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// This file is the test-only-surface check behind TestNoTestOnlyExports: a
// name that only tests reach is surface the engine carries for nobody. It
// is a whole-program check (a reference may come from any package of the
// module), so it runs over the loaded tree rather than as a per-package
// analyzer.
//
// Flagged, for each package whose import path starts with the declaring
// prefix, when no non-test file of any loaded package references it:
//   - every exported func, method, type, const and var;
//   - every unexported func and method;
//   - every exported field of a struct named Config or Options (or ending in
//     either) that no non-test file writes from outside its declaring
//     package — a package filling in its own defaults does not count.
//
// Exempt: init and main; a method that, with its siblings, satisfies an
// interface some loaded package declares or imports (Stringer, error, the
// JSON marshalers, Transport, ...); //wire:struct types and their fields;
// and a name carrying "//repolint:testseam <reason>" on its line or the line
// above. A seam with no reason does not exempt.

const testseamPrefix = "//repolint:testseam"

// testOnlyFinding is one name the check flags.
type testOnlyFinding struct {
	pos  token.Position
	name string // pkg.Name or pkg.Recv.Name
	note string
}

func (f testOnlyFinding) String() string {
	return f.pos.String() + ": " + f.name + f.note
}

// candidate is one declaration the check holds to a non-test reference.
type candidate struct {
	key   string
	name  string
	pos   token.Position
	field bool // a Config/Options field: needs an outside write
	seam  *string
}

// testOnlyNames runs the check over pkgs. Files named *_test.go are skipped
// both as declarations and as references, so a fixture can hand its tests
// in with the code.
func testOnlyNames(pkgs []*analysis.LoadedPackage, declPrefix string) []testOnlyFinding {
	var cands []*candidate
	methods := map[string]*types.Func{} // candidate key -> method, for the interface exemption
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, declPrefix) {
			continue
		}
		for _, f := range nonTestFiles(p) {
			seams := collectSeams(p.Fset, f)
			add := func(key string, id *ast.Ident, field bool) {
				pos := p.Fset.Position(id.Pos())
				cands = append(cands, &candidate{key: key, pos: pos, field: field, seam: seams[pos.Line],
					name: p.Pkg.Name() + "." + strings.TrimPrefix(key, p.ImportPath+".")})
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok || d.Name.Name == "_" || (d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main")) {
						continue
					}
					key := objKey(fn)
					if key == "" {
						continue
					}
					if d.Recv != nil {
						methods[key] = fn
					}
					add(key, d.Name, false)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							doc := s.Doc
							if doc == nil {
								doc = d.Doc
							}
							if hasMarker(doc, "//wire:struct") {
								continue
							}
							if s.Name.IsExported() {
								add(p.ImportPath+"."+s.Name.Name, s.Name, false)
							}
							st, ok := s.Type.(*ast.StructType)
							if !ok || !s.Name.IsExported() || !isConfigName(s.Name.Name) {
								continue
							}
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									if id.IsExported() {
										add(p.ImportPath+"."+s.Name.Name+"."+id.Name, id, true)
									}
								}
							}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.IsExported() {
									add(p.ImportPath+"."+id.Name, id, false)
								}
							}
						}
					}
				}
			}
		}
	}

	refs, writes := collectReferences(pkgs)
	ifaces := collectInterfaces(pkgs)

	var out []testOnlyFinding
	for _, c := range cands {
		if c.field {
			if writes[c.key] {
				continue
			}
		} else if refs[c.key] {
			continue
		}
		if fn := methods[c.key]; fn != nil && satisfiesInterface(fn, ifaces) {
			continue
		}
		note := " has no non-test reference"
		if c.field {
			note = " has no non-test write from outside its package"
		}
		if c.seam != nil {
			if *c.seam != "" {
				continue
			}
			note += " (the repolint:testseam directive needs a reason to exempt it)"
		}
		out = append(out, testOnlyFinding{pos: c.pos, name: c.name, note: note})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos.Filename != out[j].pos.Filename {
			return out[i].pos.Filename < out[j].pos.Filename
		}
		return out[i].pos.Line < out[j].pos.Line
	})
	return out
}

func nonTestFiles(p *analysis.LoadedPackage) []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

func isConfigName(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")
}

func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == marker {
			return true
		}
	}
	return false
}

// collectSeams maps each line a //repolint:testseam directive covers (its
// own and the next) to the directive's reason.
func collectSeams(fset *token.FileSet, f *ast.File) map[int]*string {
	out := map[int]*string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, testseamPrefix)
			if !ok || (rest != "" && rest[0] != ' ') {
				continue
			}
			reason := strings.TrimSpace(rest)
			line := fset.Position(c.Pos()).Line
			out[line], out[line+1] = &reason, &reason
		}
	}
	return out
}

// objKey names a package-level object or method the same way whether it was
// checked from source or read from export data: path.Name, or
// path.Recv.Name for a method of a named type. Interface methods and local
// objects have no key.
func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		sig := fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			if _, iface := named.Underlying().(*types.Interface); iface {
				return ""
			}
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// fieldKeys maps the fields of every package-level struct type of pkg and
// the packages it reaches to path.Type.Field.
func fieldKeys(pkg *types.Package) map[*types.Var]string {
	out := map[*types.Var]string{}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				out[st.Field(i)] = p.Path() + "." + name + "." + st.Field(i).Name()
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
	return out
}

// collectReferences returns the keys every non-test file references, and
// the Config/Options field keys some non-test file writes from outside the
// field's own package. A use inside the object's own declaration (a
// recursive call, a method's receiver, a self-referential type) or inside a
// blank "var _ = ..." assertion is not a reference.
func collectReferences(pkgs []*analysis.LoadedPackage) (refs, writes map[string]bool) {
	refs, writes = map[string]bool{}, map[string]bool{}
	for _, p := range pkgs {
		fields := fieldKeys(p.Pkg)
		markWrite := func(obj types.Object) {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				return
			}
			if key := fields[v.Origin()]; key != "" && v.Pkg() != nil && v.Pkg().Path() != p.ImportPath {
				writes[key] = true
			}
		}
		markSel := func(e ast.Expr) {
			for paren, ok := e.(*ast.ParenExpr); ok; paren, ok = e.(*ast.ParenExpr) {
				e = paren.X
			}
			if sel, ok := e.(*ast.SelectorExpr); ok {
				markWrite(p.Info.Uses[sel.Sel])
			}
		}
		for _, f := range nonTestFiles(p) {
			for _, decl := range f.Decls {
				ast.Inspect(decl, walkWrites(p, markWrite, markSel))
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// d.Recv, which names a method's own type, is skipped.
					self := p.Info.Defs[d.Name]
					ast.Inspect(d.Type, walkUses(p, self, refs))
					if d.Body != nil {
						ast.Inspect(d.Body, walkUses(p, self, refs))
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							self := p.Info.Defs[s.Name]
							if s.TypeParams != nil {
								ast.Inspect(s.TypeParams, walkUses(p, self, refs))
							}
							ast.Inspect(s.Type, walkUses(p, self, refs))
						case *ast.ValueSpec:
							if !allBlank(s.Names) {
								ast.Inspect(s, walkUses(p, nil, refs))
							}
						}
					}
				}
			}
		}
	}
	return refs, writes
}

func allBlank(names []*ast.Ident) bool {
	for _, id := range names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

func walkUses(p *analysis.LoadedPackage, self types.Object, refs map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil || (self != nil && originOf(obj) == self) {
			return true
		}
		if key := objKey(obj); key != "" {
			refs[key] = true
		}
		return true
	}
}

func originOf(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// walkWrites marks the fields a composite literal keys, an assignment or
// increment targets, or an & takes the address of.
func walkWrites(p *analysis.LoadedPackage, markWrite func(types.Object), markSel func(ast.Expr)) func(ast.Node) bool {
	return func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := p.Info.Types[n].Type
			if t == nil {
				return true
			}
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						markWrite(p.Info.Uses[id])
					}
				} else if i < st.NumFields() {
					markWrite(st.Field(i))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markSel(lhs)
			}
		case *ast.IncDecStmt:
			markSel(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				markSel(n.X)
			}
		}
		return true
	}
}

// iface is one interface's method set, by name, in a form comparable across
// source-checked and export-data type universes.
type iface map[string]string

// collectInterfaces gathers every non-empty, non-generic interface type
// declared at package level in the loaded packages or anything they import,
// plus error.
func collectInterfaces(pkgs []*analysis.LoadedPackage) []iface {
	seen := map[string]bool{}
	var out []iface
	addIface := func(key string, it *types.Interface) {
		if seen[key] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		seen[key] = true
		m := iface{}
		for i := 0; i < it.NumMethods(); i++ {
			fn := it.Method(i)
			m[fn.Name()] = sigKey(fn.Type().(*types.Signature))
		}
		out = append(out, m)
	}
	addIface("error", types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	// errors.Is, As and Unwrap call these through unnamed interfaces.
	errT := types.Universe.Lookup("error").Type()
	for name, sig := range map[string]*types.Signature{
		"Unwrap": types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errT)), false),
		"Is":     types.NewSignatureType(nil, nil, nil, types.NewTuple(types.NewParam(token.NoPos, nil, "", errT)), types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.Bool])), false),
	} {
		addIface("errors."+name, types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete())
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				addIface(pkg.Path()+"."+name, it)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Pkg)
	}
	return out
}

// sigKey renders a signature without parameter names or receiver, with
// package paths in full.
func sigKey(sig *types.Signature) string {
	q := func(p *types.Package) string { return p.Path() }
	tuple := func(t *types.Tuple) string {
		parts := make([]string, t.Len())
		for i := range parts {
			parts[i] = types.TypeString(t.At(i).Type(), q)
		}
		return "(" + strings.Join(parts, ",") + ")"
	}
	s := tuple(sig.Params()) + tuple(sig.Results())
	if sig.Variadic() {
		s += "..."
	}
	return s
}

// satisfiesInterface reports whether fn's receiver type (as a pointer, so
// both method sets count) implements some interface that has fn's name.
func satisfiesInterface(fn *types.Func, ifaces []iface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	have := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func)
		have[m.Name()] = sigKey(m.Type().(*types.Signature))
	}
	for _, it := range ifaces {
		if _, ok := it[fn.Name()]; !ok {
			continue
		}
		all := true
		for name, sig := range it {
			if have[name] != sig {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// TestTestOnlyRules runs the check on a fixture package whose
// fixture_test.go is the only caller of what the rules flag.
func TestTestOnlyRules(t *testing.T) {
	dir := filepath.Join("testdata", "testonly")
	pkg, err := analysis.CheckSource("repro/internal/fixture", dir, []string{"fixture.go", "fixture_test.go"}, []string{"fmt"})
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture does not type-check: %v", terr)
	}
	flagged := map[string]string{}
	for _, f := range testOnlyNames([]*analysis.LoadedPackage{pkg}, "repro/internal/") {
		flagged[f.name] = f.note
	}
	for _, row := range []struct {
		rule, name string
		flagged    bool
	}{
		{"a name a non-test file calls is not flagged", "fixture.Used", false},
		{"an exported func only a test calls is flagged", "fixture.OnlyTested", true},
		{"an interface method is exempt", "fixture.Named.String", false},
		{"a //wire:struct field is exempt", "fixture.HelloOptions.Node", false},
		{"a seam with a reason is exempt", "fixture.Seamed", false},
		{"a seam with no reason is flagged", "fixture.Unreasoned", true},
		{"a Config field written only by its own package's defaulting is flagged", "fixture.Config.Limit", true},
		{"an unexported test-only func is flagged", "fixture.onlyTested", true},
	} {
		if _, got := flagged[row.name]; got != row.flagged {
			t.Errorf("%s: %s flagged = %v, want %v", row.rule, row.name, got, row.flagged)
		}
	}
	if note := flagged["fixture.Unreasoned"]; !strings.Contains(note, "needs a reason") {
		t.Errorf("reasonless seam finding %q does not say the reason is missing", note)
	}
}
