package raidsim_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestExportedIdentifiersHaveCallers keeps exported API that nothing
// runs from accumulating under internal/. Every exported package-level
// name, method and struct field declared there needs a caller in a
// non-test file anywhere in the repository (bench/ included), or in a
// test file of another package. A use inside the identifier's own
// declaration, or of a type inside its own methods, does not count.
// Methods that implement an interface method are exempt, because a
// dynamic call through the interface is their caller, and so are struct
// fields with a tag, which an encoder reads by reflection.
//
// Callers are resolved by object with go/types, not by name, so two
// packages' same-named identifiers never vouch for each other. Fix a
// violation by deleting the identifier (with the tests that only
// exercise it), or by unexporting it when its own package's tests use
// it as an oracle or an observer.
func TestExportedIdentifiersHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	l := newLoader(t)
	for _, p := range l.pkgs {
		l.check(t, p)
	}

	var bad []string
	for key, c := range l.candidates {
		if !l.used[key] && !l.implementsInterface(c) {
			pos := l.fset.Position(c.obj.Pos())
			bad = append(bad, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, c.name))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Errorf("%d exported identifiers under internal/ have no caller outside their own package's tests "+
			"(delete them, or unexport them if their own tests need them):\n%s", len(bad), strings.Join(bad, "\n"))
	}
}

// srcPkg is one directory's Go files, split the way `go test` builds them.
type srcPkg struct {
	path     string      // import path
	files    []*ast.File // non-test files
	inTests  []*ast.File // _test.go files of the same package
	extTests []*ast.File // _test.go files of package <name>_test

	lib      *types.Package // non-test files alone, what importers see
	withTest *types.Package // non-test plus in-package test files
}

// candidate is an exported identifier under internal/ that needs a caller.
type candidate struct {
	obj  types.Object
	recv *types.Named // declaring type, for methods and fields
	name string       // pkg.Name, pkg.Type.Method or pkg.Type.Field
}

type loader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*srcPkg
	isTest map[*token.File]bool

	candidates map[token.Pos]candidate
	used       map[token.Pos]bool
	ifaces     map[string][]*types.Interface // by method name
	seenIface  map[*types.Interface]bool
	named      []*types.Named // every non-generic named type the repository declares
}

func newLoader(t *testing.T) *loader {
	l := &loader{
		fset:       token.NewFileSet(),
		pkgs:       map[string]*srcPkg{},
		isTest:     map[*token.File]bool{},
		candidates: map[token.Pos]candidate{},
		used:       map[token.Pos]bool{},
		ifaces:     map[string][]*types.Interface{},
		seenIface:  map[*types.Interface]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err := filepath.WalkDir(".", func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (strings.HasPrefix(name, ".") || name == "testdata" || dir == filepath.Join("bench", "out")) {
			return filepath.SkipDir
		}
		return l.parseDir(dir)
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *loader) parseDir(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return err
	}
	p := &srcPkg{path: "raidsim"}
	if dir != "." {
		p.path += "/" + filepath.ToSlash(dir)
	}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.extTests = append(p.extTests, f)
		default:
			p.inTests = append(p.inTests, f)
		}
		if strings.HasSuffix(name, "_test.go") {
			l.isTest[l.fset.File(f.Pos())] = true
		}
	}
	l.pkgs[p.path] = p
	return nil
}

// Import resolves repository packages to their non-test files and
// everything else to the standard library, type-checked from source.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p.lib == nil {
		pkg, err := l.typeCheck(path, p.files, l)
		if err != nil {
			return nil, err
		}
		p.lib = pkg
		l.addCandidates(pkg)
	}
	return p.lib, nil
}

// withSelf imports one package as its test build sees it.
type withSelf struct {
	*loader
	self *srcPkg
}

func (w withSelf) Import(path string) (*types.Package, error) { return w.ImportFrom(path, "", 0) }

func (w withSelf) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == w.self.path {
		return w.self.withTest, nil
	}
	return w.loader.ImportFrom(path, dir, mode)
}

func (l *loader) typeCheck(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.recordUses(pkg, files, info)
	return pkg, nil
}

// check type-checks p's three builds: the library, the library with its
// in-package tests, and the external test package.
func (l *loader) check(t *testing.T, p *srcPkg) {
	t.Helper()
	if len(p.files) > 0 {
		if _, err := l.ImportFrom(p.path, "", 0); err != nil {
			t.Fatal(err)
		}
	}
	var err error
	if len(p.inTests) > 0 {
		files := append(append([]*ast.File(nil), p.files...), p.inTests...)
		if p.withTest, err = l.typeCheck(p.path, files, l); err != nil {
			t.Fatal(err)
		}
	} else {
		p.withTest = p.lib
	}
	if len(p.extTests) > 0 {
		if _, err = l.typeCheck(p.path+"_test", p.extTests, withSelf{l, p}); err != nil {
			t.Fatal(err)
		}
	}
}

// addCandidates lists the exported identifiers a package under
// internal/ declares: package-level names, and the methods and struct
// fields of its named types.
func (l *loader) addCandidates(pkg *types.Package) {
	l.addInterfaces(pkg)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
				l.named = append(l.named, named)
			}
		}
	}
	if !strings.HasPrefix(pkg.Path(), "raidsim/internal/") {
		return
	}
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			l.candidates[obj.Pos()] = candidate{obj: obj, name: pkg.Name() + "." + name}
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		prefix := pkg.Name() + "." + name + "."
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				l.candidates[m.Pos()] = candidate{obj: m, recv: named, name: prefix + m.Name()}
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				// A tagged field's caller is the encoder that reads the tag.
				if f := st.Field(i); f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					l.candidates[f.Pos()] = candidate{obj: f, recv: named, name: prefix + f.Name()}
				}
			}
		}
	}
}

// addInterfaces indexes the named interfaces of pkg and of everything
// it imports, by method name, for the interface exemption.
func (l *loader) addInterfaces(pkg *types.Package) {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
					l.addInterface(tn.Type())
				}
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	walk(pkg)
}

func (l *loader) addInterface(typ types.Type) {
	it, ok := typ.Underlying().(*types.Interface)
	if !ok || l.seenIface[it] {
		return
	}
	l.seenIface[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		l.ifaces[name] = append(l.ifaces[name], it)
	}
}

// implementsInterface reports whether c is a method that some type of
// the repository, c's own receiver or one that embeds it, contributes to
// an interface it implements.
func (l *loader) implementsInterface(c candidate) bool {
	if _, ok := c.obj.(*types.Func); !ok || c.recv == nil {
		return false
	}
	for _, it := range l.ifaces[c.obj.Name()] {
		for _, named := range l.named {
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				if !types.Implements(typ, it) {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(typ, false, c.obj.Pkg(), c.obj.Name()); m == c.obj {
					return true
				}
			}
		}
	}
	return false
}

// recordUses marks each object that files reference as used, unless the
// reference is in a test of the object's own package (in-package or
// external) or sits inside the object's own declaration (for a type,
// inside its own methods too). Unkeyed struct literals use every field,
// and interface types met anywhere join the exemption index.
func (l *loader) recordUses(pkg *types.Package, files []*ast.File, info *types.Info) {
	for _, tv := range info.Types {
		if tv.IsType() {
			l.addInterface(tv.Type)
		}
	}
	// External test packages are their package's own tests too.
	own := strings.TrimSuffix(pkg.Path(), "_test")
	for _, f := range files {
		test := l.isTest[l.fset.File(f.Pos())]
		for _, decl := range f.Decls {
			// A grouped declaration's specs are separate declarations.
			units := []ast.Node{decl}
			if g, ok := decl.(*ast.GenDecl); ok {
				units = units[:0]
				for _, s := range g.Specs {
					units = append(units, s)
				}
			}
			for _, unit := range units {
				l.recordUnit(unit, test, own, info)
			}
		}
	}
}

func (l *loader) recordUnit(unit ast.Node, test bool, own string, info *types.Info) {
	ast.Inspect(unit, func(n ast.Node) bool {
		var obj types.Object
		switch n := n.(type) {
		case *ast.Ident:
			obj = info.Uses[n]
		case *ast.CompositeLit:
			l.unkeyedFields(n, info)
			return true
		default:
			return true
		}
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if test && obj.Pkg().Path() == own {
			return true
		}
		if !insideOwnDecl(obj, unit, info) {
			l.used[origin(obj).Pos()] = true
		}
		return true
	})
}

func (l *loader) unkeyedFields(lit *ast.CompositeLit, info *types.Info) {
	if len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
		return
	}
	typ := info.Types[lit].Type
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if st, ok := typ.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			l.used[st.Field(i).Origin().Pos()] = true
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// insideOwnDecl reports whether unit, a function or one spec of a
// grouped declaration, declares obj itself, or is a method of obj when
// obj is a type.
func insideOwnDecl(obj types.Object, unit ast.Node, info *types.Info) bool {
	switch d := unit.(type) {
	case *ast.FuncDecl:
		def := origin(info.Defs[d.Name])
		if def == origin(obj) {
			return true
		}
		if tn, ok := obj.(*types.TypeName); ok && d.Recv != nil {
			if fn, ok := def.(*types.Func); ok {
				recv := fn.Type().(*types.Signature).Recv().Type()
				if ptr, ok := recv.(*types.Pointer); ok {
					recv = ptr.Elem()
				}
				if n, ok := recv.(*types.Named); ok && n.Origin().Obj() == tn {
					return true
				}
			}
		}
	case *ast.TypeSpec:
		return info.Defs[d.Name] == obj
	case *ast.ValueSpec:
		for _, name := range d.Names {
			if info.Defs[name] == obj {
				return true
			}
		}
	}
	return false
}
