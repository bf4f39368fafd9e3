package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// unreferencedExports lists, one "name<TAB>reason" line each, the names
// in internal/ that no non-test code references, or struct fields that
// only tests set, but that stay anyway. The reason starts with one of:
//
//	(a) a seam a test injects through: fault arming, clocks, crashpoints, size bounds
//	(b) a reference tests compare against
//	(c) a helper that tests in two or more packages call
//	(d) an Error, String or Is method
//	(e) reachable from the root package's exported API
//	(f) remote.Client.SetMetrics, which bsctl is to wire in
const unreferencedExports = "testdata/unreferenced_exports.txt"

var allowReason = regexp.MustCompile(`^\([a-f]\) \S`)

// TestInternalExportsAreReferenced type-checks every file of the module
// and fails on a declaration, method, struct field or interface method in
// internal/ (internal/torture aside, whose entry points only its tests
// run), exported or not, that no live non-test code references, on a
// struct field there that tests set but non-test code never does, and on
// an allowlist line whose name is gone or neither. Names the allowlist
// gives a reason for pass.
//
// Code outside internal/, internal/torture, init functions and blank
// declarations are live; a declaration in internal/ is live when live code
// references it, and a method of a live type also when the type implements an interface
// whose method live code calls (or any interface of the standard library,
// which calls through its own). So a name only a dead name uses is dead too.
//
// A field is set by a key of a keyed composite literal, an unkeyed
// literal, an assignment, ++ or --, or &. A write of non-test code to a
// field of a method's value receiver does not count: it fills in a copy,
// as a withDefaults does. So a knob of a live type that only tests turn,
// which product code merely reads and defaults, fails here.
func TestInternalExportsAreReferenced(t *testing.T) {
	allow := readAllowlist(t)
	s := loadModule(t)
	var seeds []types.Object
	for name := range allow {
		if o := s.byName[name]; o != nil {
			seeds = append(seeds, o)
		}
	}
	bare := s.live(nil)
	seeded := s.live(seeds)
	testOnly := func(name string) bool {
		typ := name[:strings.LastIndexByte(name, '.')]
		return s.testSet[name] && !s.productSet[name] && bare[s.byName[typ]]
	}

	var unlisted, stale []string
	for _, name := range s.names {
		if !seeded[s.byName[name]] {
			unlisted = append(unlisted, name)
		} else if _, listed := allow[name]; !listed && testOnly(name) {
			unlisted = append(unlisted, name+" (only tests set it)")
		}
	}
	for name := range allow {
		o := s.byName[name]
		if o == nil {
			stale = append(stale, name+" (no such name)")
		} else if bare[o] && !testOnly(name) {
			stale = append(stale, name+" (non-test code references it)")
		}
	}
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("%d names in internal/ that no non-test code references or sets; call it, delete it, or list it with a reason in %s:\n\t%s",
			len(unlisted), unreferencedExports, strings.Join(unlisted, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale lines in %s:\n\t%s", len(stale), unreferencedExports, strings.Join(stale, "\n\t"))
	}
}

func readAllowlist(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(unreferencedExports)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, ok := strings.Cut(line, "\t")
		if !ok || !allowReason.MatchString(reason) {
			t.Fatalf("%s:%d: want name<TAB>(a-f) reason, got %q", unreferencedExports, n, line)
		}
		if _, dup := allow[name]; dup {
			t.Fatalf("%s:%d: %s listed twice", unreferencedExports, n, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// scan is the module, type-checked: who references what, who sets what.
type scan struct {
	names      []string                        // candidates, sorted
	byName     map[string]types.Object         // candidate name -> object
	refs       map[types.Object][]types.Object // a declaration in internal/ -> what it references
	roots      []types.Object                  // referenced from always-live code
	methods    []*types.Func                   // methods of internal/ types, for the interface rule
	stdIfc     []types.Type                    // interfaces of the standard library
	fields     map[*types.Var]string           // a field of an internal/ type, in any build -> its name
	testSet    map[string]bool                 // field names test code sets
	productSet map[string]bool                 // field names non-test code sets, defaults aside
}

type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Export       string
	Standard     bool
	ForTest      string
}

func loadModule(t *testing.T) *scan {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command:", err)
	}
	cmd := exec.Command(goTool, "list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,Export,Standard,ForTest", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		// A package recompiled for a test, and a test's main, are
		// checked from the plain entry's files below.
		if p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	export := map[string]string{}
	for _, p := range pkgs {
		export[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, errors.New("no export data for " + path)
		}
		return os.Open(export[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})

	parse := func(dir string, names ...[]string) []*ast.File {
		var files []*ast.File
		for _, name := range slices.Concat(names...) {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	// check type-checks files as the package path. A test build is
	// checked as far as it goes: an external test sees the plain build of
	// the package it tests, without the helpers of its in-package tests.
	check := func(path string, files []*ast.File, imp types.Importer, test bool) (*types.Package, *types.Info) {
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: imp}
		if test {
			conf.Error = func(error) {}
		}
		pkg, err := conf.Check(path, fset, files, info)
		if err != nil && !test {
			t.Fatalf("type-check %s: %v", path, err)
		}
		return pkg, info
	}
	tracked := func(path string) (rel string, ok bool) {
		rel = strings.TrimPrefix(path, "repro/")
		return rel, strings.HasPrefix(rel, "internal/") && rel != "internal/torture"
	}

	s := &scan{
		byName:     map[string]types.Object{},
		refs:       map[types.Object][]types.Object{},
		fields:     map[*types.Var]string{},
		testSet:    map[string]bool{},
		productSet: map[string]bool{},
	}
	for _, p := range pkgs {
		if p.Standard {
			std, err := gc.Import(p.ImportPath)
			if err != nil {
				t.Fatal(err)
			}
			s.addStdInterfaces(std)
			continue
		}
		files := parse(p.Dir, p.GoFiles)
		pkg, info := check(p.ImportPath, files, imp, false)
		checked[p.ImportPath] = pkg
		rel, trackedPkg := tracked(p.ImportPath)
		if trackedPkg {
			s.addCandidates(pkg, rel)
		}
		for _, f := range files {
			s.addRefs(f, info, trackedPkg)
			fieldWrites(f, info, func(field *types.Var, own bool) {
				if name := s.fields[field]; name != "" && !own {
					s.productSet[name] = true
				}
			})
		}
	}
	// The tests, once every package is checked: an external test may
	// import a package that imports the one it tests.
	for _, p := range pkgs {
		if p.Standard || len(p.TestGoFiles)+len(p.XTestGoFiles) == 0 {
			continue
		}
		testSets := func(files []*ast.File, info *types.Info) {
			for _, f := range files {
				fieldWrites(f, info, func(field *types.Var, _ bool) {
					if name := s.fields[field]; name != "" {
						s.testSet[name] = true
					}
				})
			}
		}
		if len(p.TestGoFiles) > 0 {
			tests := parse(p.Dir, p.TestGoFiles)
			pkg, info := check(p.ImportPath, append(parse(p.Dir, p.GoFiles), tests...), imp, true)
			if rel, ok := tracked(p.ImportPath); ok {
				s.nameFields(pkg, rel)
			}
			testSets(tests, info)
		}
		if len(p.XTestGoFiles) > 0 {
			xtests := parse(p.Dir, p.XTestGoFiles)
			_, info := check(p.ImportPath+"_test", xtests, imp, true)
			testSets(xtests, info)
		}
	}
	sort.Strings(s.names)
	return s
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (s *scan) addStdInterfaces(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() && types.IsInterface(tn.Type()) {
			s.stdIfc = append(s.stdIfc, tn.Type())
		}
	}
}

// addCandidates names every package-level declaration, method, field and
// interface method of pkg.
func (s *scan) addCandidates(pkg *types.Package, rel string) {
	s.nameFields(pkg, rel)
	name := func(o types.Object, qual string) {
		s.names = append(s.names, qual)
		s.byName[qual] = o
	}
	for _, n := range pkg.Scope().Names() {
		o := pkg.Scope().Lookup(n)
		name(o, rel+"."+n)
		tn, ok := o.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			name(m, rel+"."+n+"."+m.Name())
			s.methods = append(s.methods, m)
		}
		switch u := named.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if f := u.Field(i); !f.Embedded() {
					name(f, rel+"."+n+"."+f.Name())
				}
			}
		case *types.Interface:
			for i := 0; i < u.NumExplicitMethods(); i++ {
				m := u.ExplicitMethod(i)
				name(m, rel+"."+n+"."+m.Name())
			}
		}
	}
}

// nameFields records the name of every field of pkg's named struct types;
// pkg may be a test build, whose objects are its own.
func (s *scan) nameFields(pkg *types.Package, rel string) {
	for _, n := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				s.fields[st.Field(i)] = rel + "." + n + "." + st.Field(i).Name()
			}
		}
	}
}

// fieldWrites calls set for each struct field f sets (see
// TestInternalExportsAreReferenced); own marks a write to a method's
// value receiver.
func fieldWrites(f *ast.File, info *types.Info, set func(field *types.Var, own bool)) {
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return s.Obj().(*types.Var).Origin()
		}
		return nil
	}
	for _, decl := range f.Decls {
		var copied types.Object
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && len(fd.Recv.List[0].Names) == 1 {
			if _, ptr := fd.Recv.List[0].Type.(*ast.StarExpr); !ptr {
				copied = info.Defs[fd.Recv.List[0].Names[0]]
			}
		}
		ofCopy := func(e ast.Expr) bool {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return false
			}
			id, ok := sel.X.(*ast.Ident)
			return ok && copied != nil && info.Uses[id] == copied
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CompositeLit:
				tv, ok := info.Types[x]
				if !ok || tv.Type == nil || len(x.Elts) == 0 {
					break // a literal a test build could not check
				}
				st, ok := tv.Type.Underlying().(*types.Struct)
				if !ok {
					break
				}
				if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := 0; i < st.NumFields(); i++ {
						set(st.Field(i).Origin(), false)
					}
					break
				}
				for _, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[key].(*types.Var); ok {
								set(v.Origin(), false)
							}
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if v := field(lhs); v != nil {
						set(v, ofCopy(lhs))
					}
				}
			case *ast.IncDecStmt:
				if v := field(x.X); v != nil {
					set(v, ofCopy(x.X))
				}
			case *ast.UnaryExpr:
				if v := field(x.X); v != nil && x.Op == token.AND {
					set(v, false)
				}
			}
			return true
		})
	}
}

// addRefs records what each top-level declaration of f references: an
// edge from a tracked declaration, a root from any other.
func (s *scan) addRefs(f *ast.File, info *types.Info, trackedPkg bool) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			owner := info.Defs[d.Name]
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
				owner = nil
			}
			// The receiver names the method's type; that is no use of it.
			if d.Body != nil {
				s.refsFrom(d.Body, info, trackedPkg, owner)
			}
			s.refsFrom(d.Type, info, trackedPkg, owner)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					s.refsFrom(sp, info, trackedPkg, info.Defs[sp.Name])
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						var owner types.Object
						if id.Name != "_" {
							owner = info.Defs[id]
						}
						s.refsFrom(sp, info, trackedPkg, owner)
					}
				}
			}
		}
	}
}

func (s *scan) refsFrom(n ast.Node, info *types.Info, trackedPkg bool, owner types.Object) {
	add := func(o types.Object) {
		if trackedPkg && owner != nil {
			s.refs[owner] = append(s.refs[owner], o)
		} else {
			s.roots = append(s.roots, o)
		}
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				add(origin(o))
			}
		case *ast.CompositeLit:
			// A literal without keys sets every field.
			if len(x.Elts) == 0 {
				break
			}
			if _, keyed := x.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if st, ok := info.Types[x].Type.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					add(st.Field(i))
				}
			}
		}
		return true
	})
}

func origin(o types.Object) types.Object {
	switch x := o.(type) {
	case *types.Func:
		return x.Origin()
	case *types.Var:
		return x.Origin()
	}
	return o
}

// live returns the closure of what always-live code and seeds reference.
func (s *scan) live(seeds []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	var queue []types.Object
	mark := func(o types.Object) {
		if !live[o] {
			live[o] = true
			queue = append(queue, o)
		}
	}
	for _, o := range s.roots {
		mark(o)
	}
	for _, o := range seeds {
		mark(o)
	}
	for {
		for len(queue) > 0 {
			o := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, r := range s.refs[o] {
				mark(r)
			}
		}
		// A method runs when an interface its type implements is called
		// through a method of the same name.
		called := map[string][]types.Type{}
		for o := range live {
			if f, ok := o.(*types.Func); ok {
				if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					called[f.Name()] = append(called[f.Name()], recv.Type())
				}
			}
		}
		for _, ifc := range s.stdIfc {
			u := ifc.Underlying().(*types.Interface)
			for i := 0; i < u.NumMethods(); i++ {
				called[u.Method(i).Name()] = append(called[u.Method(i).Name()], ifc)
			}
		}
		for _, m := range s.methods {
			recv := m.Type().(*types.Signature).Recv().Type()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if live[m] || !live[recv.(*types.Named).Obj()] {
				continue
			}
			for _, ifc := range called[m.Name()] {
				u := ifc.Underlying().(*types.Interface)
				if types.Implements(recv, u) || types.Implements(types.NewPointer(recv), u) {
					mark(m)
					break
				}
			}
		}
		if len(queue) == 0 {
			return live
		}
	}
}
