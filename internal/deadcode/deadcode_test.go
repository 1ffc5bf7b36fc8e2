// Package deadcode holds one check: every declaration under internal/ is
// reached from something that runs. It type-checks the module from source
// with the standard library alone (go/parser, go/types, go/importer), so it
// needs no network and no tool outside the Go distribution.
//
// Roots are every declaration outside internal/ (commands, examples, the
// module root and the nested benchmark module), package-level var
// initialisers and init functions, methods of reached types that have the
// name and signature of some interface's method, and whatever a _test.go
// file in another directory uses. From those roots the check walks the use graph of non-test
// code; an internal/ declaration it never reaches, exported or not, is a
// finding unless allowlist.txt names it.
package deadcode

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
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

// maxAllowlist bounds the committed exceptions: an allowlist that grows
// without bound is a check that no longer checks.
const maxAllowlist = 10

func TestNoUnreachableCode(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("allowlist.txt")
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseAllowlist(string(raw))
	if err != nil {
		t.Fatalf("allowlist.txt: %v", err)
	}
	if len(allow) > maxAllowlist {
		t.Errorf("allowlist.txt has %d entries, at most %d allowed", len(allow), maxAllowlist)
	}
	unreached, stale, err := check(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range unreached {
		t.Errorf("%s: %s is reached by nothing that runs: delete it", d.pos, d.key)
	}
	for _, key := range stale {
		t.Errorf("allowlist.txt: %s is reached or no longer exists: drop the entry", key)
	}
	if t.Failed() {
		t.Logf("allowlist.txt (%d of %d entries):\n%s", len(allow), maxAllowlist, raw)
	}
}

// parseAllowlist reads one "key reason" pair per line; blank lines and
// lines starting with # are skipped. Every entry needs a reason.
func parseAllowlist(text string) (map[string]string, error) {
	allow := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", n, key)
		}
		if _, dup := allow[key]; dup {
			return nil, fmt.Errorf("line %d: %s listed twice", n, key)
		}
		allow[key] = strings.TrimSpace(reason)
	}
	return allow, sc.Err()
}

// decl is one package-level declaration (or method) under internal/.
type decl struct {
	key  string // module-relative: "internal/mpi.Handle.Send"
	pos  token.Position
	uses []token.Pos // the declarations it refers to
	// ifaceMethods are a type's methods that have the name and signature
	// of some interface method; they are reached with the type.
	ifaceMethods []token.Pos
}

// check loads the module at root and returns the internal/ declarations
// nothing reaches that allow does not name, sorted by key, and the allow
// keys that are reached or name no declaration.
func check(root string, allow map[string]string) (unreached []*decl, stale []string, err error) {
	l, err := load(root)
	if err != nil {
		return nil, nil, err
	}
	g, err := l.graph()
	if err != nil {
		return nil, nil, err
	}
	reached := g.walk(l.roots)
	byKey := make(map[string]token.Pos, len(g.decls))
	for p, d := range g.decls {
		byKey[d.key] = p
	}
	var allowed []token.Pos
	for key := range allow {
		p, ok := byKey[key]
		if !ok || reached[p] {
			stale = append(stale, key)
			continue
		}
		allowed = append(allowed, p)
	}
	reached = g.walk(append(allowed, l.roots...))
	for p, d := range g.decls {
		if !reached[p] {
			unreached = append(unreached, d)
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].key < unreached[j].key })
	sort.Strings(stale)
	return unreached, stale, nil
}

// pkgDir is one directory of Go files, split the way go test splits it.
type pkgDir struct {
	path     string // import path
	dir      string
	internal bool // under the main module's internal/
	files    []*ast.File
	tests    []*ast.File // _test.go files in the package itself
	xtests   []*ast.File // _test.go files in package <name>_test
}

type loader struct {
	root    string // the main module's directory
	main    string // and its path
	fset    *token.FileSet
	std     types.ImporterFrom
	dirs    map[string]*pkgDir
	checked map[string]*types.Package
	info    *types.Info // every non-test package shares it
	errs    []error
	// roots are declarations reached from outside the use graph: what
	// non-internal files and other directories' tests use, var
	// initialisers and init functions.
	roots []token.Pos
}

// load parses and type-checks every package of the module at root and of
// any module nested under it, test files included.
func load(root string) (*loader, error) {
	fset := token.NewFileSet()
	l := &loader{
		root:    root,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		dirs:    make(map[string]*pkgDir),
		checked: make(map[string]*types.Package),
		info:    &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)},
	}
	var err error
	if l.main, err = modulePath(root); err != nil {
		return nil, err
	}
	if err := l.scan(root, l.main, root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if len(l.dirs[p].files) > 0 {
			l.Import(p)
		}
	}
	if len(l.errs) > 0 {
		return nil, errors.Join(l.errs...)
	}
	for _, p := range paths {
		l.collectRoots(l.dirs[p])
	}
	if len(l.errs) > 0 {
		return nil, errors.Join(l.errs...)
	}
	return l, nil
}

func modulePath(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module line", dir)
}

// scan records every package directory under dir, which belongs to module
// mod rooted at modDir. A directory with its own go.mod starts a module;
// testdata and dot or underscore directories are skipped, as go does.
func (l *loader) scan(dir, mod, modDir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	rel, err := filepath.Rel(modDir, dir)
	if err != nil {
		return err
	}
	p := &pkgDir{path: mod, dir: dir}
	if rel != "." {
		p.path = mod + "/" + filepath.ToSlash(rel)
	}
	p.internal = modDir == l.root && (rel == "internal" || strings.HasPrefix(filepath.ToSlash(rel), "internal/"))
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				continue
			}
			sub := filepath.Join(dir, name)
			subMod, subDir := mod, modDir
			if _, err := os.Stat(filepath.Join(sub, "go.mod")); err == nil {
				if subMod, err = modulePath(sub); err != nil {
					return err
				}
				subDir = sub
			}
			if err := l.scan(sub, subMod, subDir); err != nil {
				return err
			}
			continue
		}
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xtests = append(p.xtests, f)
		default:
			p.tests = append(p.tests, f)
		}
	}
	if len(p.files)+len(p.tests)+len(p.xtests) > 0 {
		l.dirs[p.path] = p
	}
	return nil
}

// Import type-checks a module package's non-test files on first use, its
// type errors collected in l.errs, and hands anything else to the standard
// library's source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	p, ok := l.dirs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	pkg, _ := conf.Check(path, l.fset, p.files, l.info)
	l.checked[path] = pkg
	return pkg, nil
}

// collectRoots adds what p's files use from outside the internal use graph:
// everything a non-internal file uses, what p's tests use from other
// directories, and what var initialisers and init functions use.
func (l *loader) collectRoots(p *pkgDir) {
	if !p.internal {
		l.rootUses(l.info, p.files, "")
	}
	if len(p.tests) > 0 {
		files := append(append([]*ast.File(nil), p.files...), p.tests...)
		l.rootUses(l.checkTest(p.path, files), p.tests, p.dir)
	}
	if len(p.xtests) > 0 {
		l.rootUses(l.checkTest(p.path+"_test", p.xtests), p.xtests, p.dir)
	}
	if !p.internal {
		return
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.Name == "init" {
					l.roots = append(l.roots, l.usesIn(d)...)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					vs, ok := s.(*ast.ValueSpec)
					if !ok || d.Tok != token.VAR {
						continue
					}
					for _, v := range vs.Values {
						l.roots = append(l.roots, l.usesIn(v)...)
					}
					for _, n := range vs.Names {
						if n.Name == "_" && vs.Type != nil {
							l.roots = append(l.roots, l.usesIn(vs.Type)...)
						}
					}
				}
			}
		}
	}
}

// checkTest type-checks one test variant of a package and returns its uses.
func (l *loader) checkTest(path string, files []*ast.File) *types.Info {
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	conf.Check(path, l.fset, files, info)
	return info
}

// rootUses roots every object that info records a use of inside files and
// that is declared outside directory skip ("" roots them all).
func (l *loader) rootUses(info *types.Info, files []*ast.File, skip string) {
	in := make(map[*token.File]bool, len(files))
	for _, f := range files {
		in[l.fset.File(f.Pos())] = true
	}
	for id, obj := range info.Uses {
		if !in[l.fset.File(id.Pos())] || obj.Pkg() == nil {
			continue
		}
		obj = origin(obj)
		if skip != "" && filepath.Dir(l.fset.Position(obj.Pos()).Filename) == skip {
			continue
		}
		l.roots = append(l.roots, obj.Pos())
	}
}

// usesIn lists the objects the identifiers under n refer to, by position.
func (l *loader) usesIn(n ast.Node) []token.Pos {
	var out []token.Pos
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := l.info.Uses[id]; obj != nil && obj.Pkg() != nil {
				out = append(out, origin(obj).Pos())
			}
		}
		return true
	})
	return out
}

// origin maps an instantiated generic function or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// graph is the use graph over internal/ declarations, keyed by position.
type graph struct {
	decls map[token.Pos]*decl
}

func (l *loader) graph() (*graph, error) {
	g := &graph{decls: make(map[token.Pos]*decl)}
	add := func(p *pkgDir, id *ast.Ident, recv string, uses []token.Pos) {
		obj := l.info.Defs[id]
		if id.Name == "_" || obj == nil {
			return
		}
		key := strings.TrimPrefix(p.path, l.main+"/") + "."
		if recv != "" {
			key += recv + "."
		}
		g.decls[obj.Pos()] = &decl{key: key + id.Name, pos: l.fset.Position(id.Pos()), uses: uses}
	}
	var methods []*types.Func
	for _, p := range l.dirs {
		if !p.internal {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						continue
					}
					fn, _ := l.info.Defs[d.Name].(*types.Func)
					recv := ""
					if d.Recv != nil && fn != nil {
						recv = recvNamed(fn).Obj().Name()
						methods = append(methods, fn)
					}
					add(p, d.Name, recv, l.usesIn(d))
				case *ast.GenDecl:
					var prev []token.Pos // a const spec without values repeats the previous one
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(p, s.Name, "", l.usesIn(s))
						case *ast.ValueSpec:
							uses := l.usesIn(s)
							if d.Tok == token.CONST {
								if s.Type == nil && len(s.Values) == 0 {
									uses = prev
								}
								prev = uses
							}
							for _, n := range s.Names {
								add(p, n, "", uses)
							}
						}
					}
				}
			}
		}
	}
	ifaces, err := l.interfaceMethods()
	if err != nil {
		return nil, err
	}
	for _, fn := range methods {
		if !implementsSome(fn, ifaces) {
			continue
		}
		if t := g.decls[recvNamed(fn).Obj().Pos()]; t != nil {
			t.ifaceMethods = append(t.ifaceMethods, fn.Pos())
		}
	}
	return g, nil
}

func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin()
	}
	return nil
}

// interfaceMethods maps a method name to the signatures interfaces give
// it: every interface type an expression or declaration of the checked
// code has, every package-level interface of the packages it imports,
// error, and the interfaces the errors package asserts to inside function
// bodies (errorMethods). Name and signature must both match: by name alone,
// hash.Hash's Reset or fmt.Scanner's Scan would keep any method so named.
func (l *loader) interfaceMethods() (map[string][]*types.Signature, error) {
	methods := make(map[string][]*types.Signature)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				methods[m.Name()] = append(methods[m.Name()], m.Type().(*types.Signature))
			}
		}
	}
	addScope := func(pkg *types.Package) {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	for _, tv := range l.info.Types {
		addIface(tv.Type)
	}
	addIface(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(l.fset, "errors.go", errorMethods, 0)
	if err != nil {
		return nil, err
	}
	errs, err := new(types.Config).Check("errors", l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	addScope(errs)
	imported := make(map[*types.Package]bool)
	for _, pkg := range l.checked {
		for _, imp := range pkg.Imports() {
			imported[imp] = true
		}
	}
	for pkg := range imported {
		addScope(pkg)
	}
	return methods, nil
}

const errorMethods = `package errors

type wrapper interface{ Unwrap() error }
type multiWrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// implementsSome reports whether fn has the name and signature of a method
// in methods. A signature over type parameters matches by name alone.
func implementsSome(fn *types.Func, methods map[string][]*types.Signature) bool {
	for _, sig := range methods[fn.Name()] {
		if types.Identical(fn.Type(), sig) || mentionsTypeParam(sig) {
			return true
		}
	}
	return false
}

func mentionsTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Pointer:
		return mentionsTypeParam(t.Elem())
	case *types.Slice:
		return mentionsTypeParam(t.Elem())
	case *types.Array:
		return mentionsTypeParam(t.Elem())
	case *types.Chan:
		return mentionsTypeParam(t.Elem())
	case *types.Map:
		return mentionsTypeParam(t.Key()) || mentionsTypeParam(t.Elem())
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if mentionsTypeParam(t.TypeArgs().At(i)) {
				return true
			}
		}
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				if mentionsTypeParam(tup.At(i).Type()) {
					return true
				}
			}
		}
	}
	return false
}

// walk marks everything reachable from roots.
func (g *graph) walk(roots []token.Pos) map[token.Pos]bool {
	reached := make(map[token.Pos]bool)
	var stack []token.Pos
	mark := func(p token.Pos) {
		if g.decls[p] != nil && !reached[p] {
			reached[p] = true
			stack = append(stack, p)
		}
	}
	for _, p := range roots {
		mark(p)
	}
	for len(stack) > 0 {
		d := g.decls[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, p := range d.uses {
			mark(p)
		}
		for _, p := range d.ifaceMethods {
			mark(p)
		}
	}
	return reached
}
