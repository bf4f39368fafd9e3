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
	"sort"
	"strings"
	"testing"
)

// unreferencedExports lists, one "name<TAB>reason" line each, the
// exported names in internal/ that no non-test code references but that
// stay anyway. The reason starts with one of:
//
//	(a) a seam a test injects through: fault arming, clocks, crashpoints, size bounds
//	(b) a reference tests compare against
//	(c) a helper that tests in two or more packages call
//	(d) an Error, String or Is method
//	(e) reachable from the root package's exported API
//	(f) remote.Client.SetMetrics, which bsctl is to wire in
const unreferencedExports = "testdata/unreferenced_exports.txt"

var allowReason = regexp.MustCompile(`^\([a-f]\) \S`)

// TestInternalExportsAreReferenced type-checks every non-test file of the
// module and fails on an exported name, method, struct field or interface
// method in internal/ (internal/torture aside, whose entry points only its
// tests run) that no live non-test code references and the allowlist does
// not name, and on an allowlist line whose name is referenced or gone.
//
// Code outside internal/, internal/torture, init functions and blank
// declarations are live; a declaration in internal/ is live when live code
// references it, and a method of a live type also when the type implements an interface
// whose method live code calls (or any interface of the standard library,
// which calls through its own). So a name only a dead name uses is dead too.
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

	var unlisted, stale []string
	for _, name := range s.names {
		o := s.byName[name]
		if !seeded[o] {
			unlisted = append(unlisted, name)
		}
	}
	for name := range allow {
		o := s.byName[name]
		if o == nil {
			stale = append(stale, name+" (no such name)")
		} else if bare[o] {
			stale = append(stale, name+" (non-test code references it)")
		}
	}
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("%d exported names in internal/ that no non-test code references; call it, delete it, or list it with a reason in %s:\n\t%s",
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

// scan is the module's non-test code, type-checked: who references what.
type scan struct {
	names   []string                        // candidates, sorted
	byName  map[string]types.Object         // candidate name -> object
	refs    map[types.Object][]types.Object // a declaration in internal/ -> what it references
	roots   []types.Object                  // referenced from always-live code
	methods []*types.Func                   // methods of internal/ types, for the interface rule
	stdIfc  []types.Type                    // interfaces of the standard library
}

type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

func loadModule(t *testing.T) *scan {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command:", err)
	}
	cmd := exec.Command(goTool, "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
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
		pkgs = append(pkgs, p)
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

	s := &scan{byName: map[string]types.Object{}, refs: map[types.Object][]types.Object{}}
	for _, p := range pkgs {
		if p.Standard {
			std, err := gc.Import(p.ImportPath)
			if err != nil {
				t.Fatal(err)
			}
			s.addStdInterfaces(std)
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		rel := strings.TrimPrefix(p.ImportPath, "repro/")
		trackedPkg := strings.HasPrefix(rel, "internal/") && rel != "internal/torture"
		if trackedPkg {
			s.addCandidates(pkg, rel)
		}
		for _, f := range files {
			s.addRefs(f, info, trackedPkg)
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

// addCandidates names every exported package-level declaration, method,
// field and interface method of pkg.
func (s *scan) addCandidates(pkg *types.Package, rel string) {
	name := func(o types.Object, qual string) {
		if o.Exported() {
			s.names = append(s.names, qual)
			s.byName[qual] = o
		}
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
