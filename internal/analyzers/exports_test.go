package analyzers

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the exported internal identifiers and option
// fields that exist for tests. A key is a package path below internal/
// (the whole package is exempt), or that path, a dot and a name, with
// "Type.Method" for a method and "Type.Field" for a field. Each entry
// says why it cannot live in a _test.go file, since _test.go files are
// not importable, or why no production code sets the field.
var testSupport = map[string]string{
	"plangen":                  "random plan generator shared by the property tests of dag and analyze/cert",
	"chaos":                    "fault-injection harness; the chaos tests and CI's chaos smoke drive it",
	"obs.WithHostSpans":        "lets tests in other packages record host-clock spans into a Trace",
	"sim.Config.FullResolve":   "selects the reference solver TestIncrementalMatchesFullResolve compares the incremental one against",
	"serve.Config.WrapBackend": "the seam through which chaos and the serve tests wrap compilers with fakes",
}

// TestNoTestOnlyExports fails when an exported identifier of a
// non-main package under internal/ is referenced by no non-test file
// outside its own declaration, or when an option field is set by no
// non-test file. The references and settings counted come from the
// whole module (cmd/ and examples/ included) and the perfbench module.
func TestNoTestOnlyExports(t *testing.T) {
	findings, err := testOnlyExports(testSupport, "../..", "../../perfbench")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.pos.IsValid() {
			t.Errorf("%s: %s", f.pos, f.msg)
		} else {
			t.Error(f.msg)
		}
	}
}

// TestTestOnlyExportsFixture runs the guard over a small module that
// holds both kinds of finding and both exemptions.
func TestTestOnlyExportsFixture(t *testing.T) {
	for _, tc := range []struct {
		allow map[string]string
		want  []string
	}{
		// TestOnly is called from a _test.go file only; Orphan is
		// mentioned only by its own method; Options.Tested is set only
		// from a _test.go file and by Options' own method. Widget.Size is
		// exempt because the root package aliases Widget, Label.String
		// because it satisfies fmt.Stringer, Failure.Unwrap because
		// errors.Is calls it, helper.Support because it is allowlisted.
		// Options.Set has a production setter, and WidgetConfig.Width is
		// public API through the alias.
		{
			allow: map[string]string{"helper.Support": "stands for a test-support name"},
			want:  []string{"lib.Options.Tested " + unset, "lib.Orphan " + testOnly, "lib.TestOnly " + testOnly},
		},
		// An allowlist entry that exempts nothing is stale.
		{
			allow: map[string]string{
				"helper":          "a test-support package",
				"lib.Used":        "production calls it",
				"lib.Gone":        "no such name",
				"lib.Options.Set": "production sets it",
			},
			want: []string{
				"lib.Gone " + stale,
				"lib.Options.Set " + stale,
				"lib.Options.Tested " + unset,
				"lib.Orphan " + testOnly,
				"lib.TestOnly " + testOnly,
				"lib.Used " + stale,
			},
		},
	} {
		findings, err := testOnlyExports(tc.allow, "testdata/exports")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			got = append(got, f.msg)
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("allow %v: findings\n%s\nwant\n%s", tc.allow, strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
		}
	}
}

type finding struct {
	pos token.Position // zero for an allowlist entry
	msg string         // starts with the path below internal/, a dot, and Name or Type.Method
}

const (
	testOnly = "is referenced only from tests; delete it, or move it into a _test.go file"
	unset    = "is an option no non-test file sets; delete it"
	stale    = "is allowlisted but needs no exemption; drop the entry"
)

// testOnlyExports type-checks the non-test files of the modules rooted
// at dirs (the first is the main module) and reports the exported
// identifiers of its internal/ packages that no non-test file
// references outside the identifier's own declaration. A type's
// declaration includes its methods. A method counts as referenced when
// it satisfies a method of an interface that some loaded package
// declares or uses. It also reports the exported fields of option
// types (optionType) that no non-test file sets (fieldSets). The
// methods and fields of types the root package aliases are public API.
// Packages in allow are exempt, and their references and settings do
// not count; an entry of allow that exempts nothing is reported too.
func testOnlyExports(allow map[string]string, dirs ...string) ([]finding, error) {
	l := &loader{
		fset: token.NewFileSet(),
		std:  importer.Default(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		files: map[*types.Package][]*ast.File{},
	}
	for _, dir := range dirs {
		path, err := modulePath(filepath.Join(dir, "go.mod"))
		if err != nil {
			return nil, err
		}
		l.mods = append(l.mods, module{path, dir})
	}
	for _, m := range l.mods {
		if err := l.loadAll(m); err != nil {
			return nil, err
		}
	}
	root := l.pkgs[l.mods[0].path]
	if root == nil {
		return nil, fmt.Errorf("%s: module %s has no root package", l.mods[0].dir, l.mods[0].path)
	}
	internal := func(pkg *types.Package) (string, bool) {
		rel, ok := strings.CutPrefix(pkg.Path(), root.Path()+"/internal/")
		return rel, ok && pkg.Name() != "main"
	}
	support := func(pkg *types.Package) bool {
		rel, ok := internal(pkg)
		return ok && allow[rel] != ""
	}

	used := l.references(support)
	l.markInterfaceMethods(used)
	public := map[*types.TypeName]bool{}
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			public[n.Obj()] = true
			for i := 0; i < n.NumMethods(); i++ {
				used[n.Method(i)] = true
			}
		}
	}

	var out []finding
	exempted := map[string]bool{}
	check := func(name string, obj types.Object, ok bool, msg string) {
		switch {
		case ok:
		case allow[name] != "":
			exempted[name] = true
		default:
			out = append(out, finding{l.fset.Position(obj.Pos()), name + " " + msg})
		}
	}
	owner := map[*types.Var]*types.TypeName{}
	for pkg := range l.files {
		if _, ok := internal(pkg); !ok || support(pkg) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !optionType(tn) || public[tn] {
				continue
			}
			st := tn.Type().Underlying().(*types.Struct)
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					owner[f] = tn
				}
			}
		}
	}
	set := l.fieldSets(support, owner)
	for pkg, files := range l.files {
		rel, ok := internal(pkg)
		if !ok {
			continue
		}
		if allow[rel] != "" {
			exempted[rel] = true
			continue
		}
		for _, def := range exportedDecls(files) {
			obj := l.info.Defs[def.id]
			check(rel+"."+def.name, obj, used[obj], testOnly)
		}
	}
	for f, tn := range owner {
		rel, _ := internal(tn.Pkg())
		check(rel+"."+tn.Name()+"."+f.Name(), f, set[f], unset)
	}
	for name := range allow {
		if !exempted[name] {
			out = append(out, finding{msg: name + " " + stale})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].msg < out[j].msg })
	return out, nil
}

// optionType reports whether tn is an exported struct type named
// Options, Config, or ending in either: a bag of settings, each of
// which some production code should set.
func optionType(tn *types.TypeName) bool {
	name := tn.Name()
	if tn.IsAlias() || !tn.Exported() || !(strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")) {
		return false
	}
	_, ok := tn.Type().Underlying().(*types.Struct)
	return ok
}

type decl struct {
	id   *ast.Ident
	name string // Name, or Type.Method for a method
}

// exportedDecls lists the exported package-level names and methods
// that files declare.
func exportedDecls(files []*ast.File) []decl {
	var ds []decl
	add := func(id *ast.Ident, name string) {
		if id.IsExported() {
			ds = append(ds, decl{id, name})
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					name = recvBase(d.Recv.List[0].Type).Name + "." + name
				}
				add(d.Name, name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, n.Name)
						}
					}
				}
			}
		}
	}
	return ds
}

type module struct{ path, dir string }

// loader type-checks module packages from their non-test source and
// everything else from the toolchain's export data.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	mods  []module
	pkgs  map[string]*types.Package
	info  *types.Info
	files map[*types.Package][]*ast.File
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if p, ok := strings.CutPrefix(s.Text(), "module "); ok {
			return strings.TrimSpace(p), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// loadAll loads every package of m, skipping testdata, hidden
// directories and nested modules.
func (l *loader) loadAll(m module) error {
	return filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != m.dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(m.dir, p)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		if _, err := build.Default.ImportDir(p, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		_, err = l.Import(path)
		return err
	})
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	var dir string
	best := -1
	for _, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && len(m.path) > best {
			best = len(m.path)
			dir = filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path[len(m.path):], "/")))
		}
	}
	if best < 0 {
		return l.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.files[pkg] = files
	return pkg, nil
}

// references returns the objects some non-test file mentions outside
// their own declaration, leaving out the files of skipped packages.
func (l *loader) references(skip func(*types.Package) bool) map[types.Object]bool {
	used := map[types.Object]bool{}
	for pkg, files := range l.files {
		if skip(pkg) {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own := map[types.Object]bool{l.info.Defs[d.Name]: true}
					if d.Recv != nil {
						own[l.info.Uses[recvBase(d.Recv.List[0].Type)]] = true
					}
					l.mark(d, own, used)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						own := map[types.Object]bool{}
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[l.info.Defs[s.Name]] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								own[l.info.Defs[n]] = true
							}
						}
						l.mark(s, own, used)
					}
				}
			}
		}
	}
	return used
}

// fieldSets returns the fields of owner that some non-test file sets —
// names as a composite-literal key, assigns to, increments, or takes
// the address of — outside the methods of the field's own type, so a
// type's defaulting method is no setter. It leaves out the files of
// skipped packages.
func (l *loader) fieldSets(skip func(*types.Package) bool, owner map[*types.Var]*types.TypeName) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	for pkg, files := range l.files {
		if skip(pkg) {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				var recv types.Object
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = l.info.Uses[recvBase(fd.Recv.List[0].Type)]
				}
				mark := func(id *ast.Ident) {
					if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
						if tn := owner[v.Origin()]; tn != nil && tn != recv {
							set[v.Origin()] = true
						}
					}
				}
				// target marks every field on the path an assignment
				// writes through: a.B.C = v sets C and, in part, B.
				target := func(e ast.Expr) {
					for {
						switch x := e.(type) {
						case *ast.SelectorExpr:
							mark(x.Sel)
							e = x.X
						case *ast.IndexExpr:
							e = x.X
						case *ast.StarExpr:
							e = x.X
						case *ast.ParenExpr:
							e = x.X
						default:
							return
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							mark(id)
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							target(lhs)
						}
					case *ast.IncDecStmt:
						target(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							target(n.X)
						}
					}
					return true
				})
			}
		}
	}
	return set
}

func (l *loader) mark(n ast.Node, own, used map[types.Object]bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := l.info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && !own[obj] {
			used[obj] = true
		}
		return true
	})
}

// markInterfaceMethods marks every method of a module type that
// satisfies a method of an interface the loaded packages declare or
// use, since a call through the interface names the interface's
// method, not the concrete one.
func (l *loader) markInterfaceMethods(used map[types.Object]bool) {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 || !it.IsMethodSet() {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seen[it] = true
		ifaces = append(ifaces, it)
	}
	add(types.Universe.Lookup("error").Type())
	// errors.Is and errors.As call an error's Unwrap method through an
	// interface declared inside their bodies, which no package scope
	// lists.
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	scopes := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(p *types.Package) {
		if scopes[p] {
			return
		}
		scopes[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, p := range l.pkgs {
		addScope(p)
	}
	for _, tv := range l.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}

	for pkg := range l.files {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 || n.NumMethods() == 0 {
				continue
			}
			for _, it := range ifaces {
				for _, v := range []types.Type{n, types.NewPointer(n)} {
					if !types.Implements(v, it) {
						continue
					}
					for i := 0; i < it.NumMethods(); i++ {
						m := it.Method(i)
						if obj, _, _ := types.LookupFieldOrMethod(v, false, m.Pkg(), m.Name()); obj != nil {
							used[obj] = true
						}
					}
					break
				}
			}
		}
	}
}

// recvBase returns the type name of a method receiver expression.
func recvBase(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			panic(fmt.Sprintf("unexpected receiver %T", e))
		}
	}
}
