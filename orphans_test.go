package protodsl

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// orphanExempt lists the internal packages that may have no importer,
// each with the reason it is kept anyway.
var orphanExempt = map[string]string{
	"internal/ipv4/gen": "generated tier, pinned by TestGeneratedFilesAreCurrent and its diff tests",
}

// TestNoOrphanInternalPackages fails when a non-main package under
// internal/ has no non-test importer outside its own directory: code
// that nothing ships is code nobody runs. A stale exemption (the
// package is gone, or something now imports it) fails too.
func TestNoOrphanInternalPackages(t *testing.T) {
	fset := token.NewFileSet()
	libs := map[string]bool{}     // dir → holds a non-main package under internal/
	imported := map[string]bool{} // import path → some non-test file imports it
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		if dir := filepath.ToSlash(filepath.Dir(p)); f.Name.Name != "main" && strings.HasPrefix(dir, "internal/") {
			libs[dir] = true
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			imported[imp] = true // a package cannot import itself
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for dir := range libs {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		_, exempt := orphanExempt[dir]
		switch orphan := !imported[path.Join("protodsl", dir)]; {
		case orphan && !exempt:
			t.Errorf("%s: no non-test Go file outside the package imports it; delete it or import it", dir)
		case !orphan && exempt:
			t.Errorf("%s: exempt as an orphan but now imported; drop the exemption", dir)
		}
	}
	for dir := range orphanExempt {
		if !libs[dir] {
			t.Errorf("%s: exempt as an orphan but gone; drop the exemption", dir)
		}
	}
}

// deadExempt lists the declarations the dead-symbol gate accepts
// although no non-test code uses them, each with the reason it is kept.
// Keys are named as the gate names its findings: pkg.Name, or
// pkg.Type.Member for a method or a field.
var deadExempt = map[string]string{
	"genrt.CRC32":                "the runtime half of a crc32 checksum field: codegen emits calls to it (checksumHelper), as for examples/quickstart's Ping, but no generated package in the tree has such a field",
	"harness.FlowResult.Shard":   "labels each flow in Report.Results; bench/sim.go's traced sweep sets it, so deleting it breaks the benchmark's build",
	"harness.FlowResult.Flow":    "as FlowResult.Shard",
	"sockets.Result.Delivered":   "internal/sockets is E2's hand-written baseline, measured line by line (cmd/experiments e2); its Result mirrors arq.Result so the comparison is like for like, and trimming it would change the measurement",
	"sockets.Result.Retransmits": "as sockets.Result.Delivered",
	"sockets.Result.Duration":    "as sockets.Result.Delivered",
	"verify.Stats.Workers":       "the parallelism Explore actually used (0 selects GOMAXPROCS, capped by the frontier); the differential test pins that Options.Workers is honoured, and nothing else shows it",
}

// TestNoDeadExports fails on every declaration that ships but that
// nothing running uses: an exported func, method, type, var or const
// declared in non-test, non-generated code under internal/ or in the
// root package that no non-test code uses outside its own declaration,
// and an unexported one under internal/ that no code uses at all, tests
// included. It fails too on a field of a struct type declared there
// that no non-test code reads: setting it in a composite literal,
// assigning it and ++/-- are writes. A promoted selection reads the
// embedded fields it passes through, == and map keys read every field
// of the struct they compare, and a json tag has reflection read it.
// The root package is a facade: a use inside it counts only
// when it sits in a root declaration that code outside the root keeps,
// such as a type a kept signature names. A method that implements an
// interface the program uses is reached through that interface; an
// exported name that a test in another package uses is API only Go's
// export rule lets that test reach. Neither is a finding. A stale
// exemption fails too.
func TestNoDeadExports(t *testing.T) {
	findings, err := scanDeadSymbols(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range deadGateErrors(findings, deadExempt) {
		t.Error(e)
	}
}

// deadGateErrors returns the findings that exempt does not list, then
// the exemptions that match no finding, sorted.
func deadGateErrors(findings []deadFinding, exempt map[string]string) []string {
	var out, stale []string
	found := map[string]bool{}
	for _, f := range findings {
		found[f.name] = true
		if _, ok := exempt[f.name]; !ok {
			out = append(out, f.String())
		}
	}
	for name := range exempt {
		if !found[name] {
			stale = append(stale, name+": exempt as dead but used, or gone; drop the exemption")
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// TestDeadSymbolClassifier runs the dead-symbol rules over a module that
// holds one declaration per class and checks which ones fail.
func TestDeadSymbolClassifier(t *testing.T) {
	findings, err := scanDeadSymbols(filepath.Join("testdata", "deadexports"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.String())
	}
	want := []string{
		"deadmod.Unused facade.go:14: exported but used by nothing outside the root package",
		"deadmod.Named facade.go:17: exported but used by nothing outside the root package",
		"a.Thing.Len internal/a/a.go:16: exported but used nowhere",
		"a.Nowhere internal/a/a.go:19: exported but used nowhere",
		"a.Recursive internal/a/a.go:22: exported but used nowhere",
		"a.OwnTestOnly internal/a/a.go:30: exported but used only by its own package's tests",
		"a.XTestOnly internal/a/a.go:33: exported but used only by its own package's tests",
		"a.unexportedDead internal/a/a.go:38: unexported and used nowhere",
		"a.Fields.Literal internal/a/fields.go:13: field never read",
		"a.Fields.Assigned internal/a/fields.go:14: field never read",
		"a.Fields.Counted internal/a/fields.go:15: field never read",
		"a.Fields.TestRead internal/a/fields.go:17: field read only by tests",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	errs := deadGateErrors(findings, map[string]string{
		"a.Nowhere":         "exempt: listed, so not an error",
		"a.Fields.Assigned": "exempt: listed, so not an error",
		"a.New":             "stale: New is used",
		"a.Gone":            "stale: no such declaration",
		"a.OtherTestAPI":    "stale: another package's test uses it",
	})
	want = append(want[:3:3], want[4:]...)                               // a.Nowhere is exempt
	want = append(want[:len(want)-3:len(want)-3], want[len(want)-2:]...) // so is a.Fields.Assigned
	want = append(want,
		"a.Gone: exempt as dead but used, or gone; drop the exemption",
		"a.New: exempt as dead but used, or gone; drop the exemption",
		"a.OtherTestAPI: exempt as dead but used, or gone; drop the exemption",
	)
	if strings.Join(errs, "\n") != strings.Join(want, "\n") {
		t.Errorf("gate errors:\n%s\nwant:\n%s", strings.Join(errs, "\n"), strings.Join(want, "\n"))
	}
}

// A deadFinding is one declaration the dead-symbol gate rejects.
type deadFinding struct {
	name string // pkg.Name, or pkg.Type.Member for a method or a field
	pos  string // file:line, relative to the module root
	why  string
}

func (f deadFinding) String() string { return f.name + " " + f.pos + ": " + f.why }

// The source importer type-checks each standard package once; every
// scan shares it.
var (
	symFset = token.NewFileSet()
	symStd  = sync.OnceValue(func() types.Importer { return importer.ForCompiler(symFset, "source", nil) })
)

// symPkg is one package directory of the scanned module.
type symPkg struct {
	dir, path, name      string
	files, tests, xtests []*ast.File
	pkg                  *types.Package
	info                 *types.Info
}

// useSite is one use of a declared name.
type useSite struct {
	pos  token.Pos
	dir  string // package directory of the using file
	test bool   // the using file is a _test.go file
}

// symbolScan type-checks every package of one module and records, per
// declared name, where it is used.
type symbolScan struct {
	module string
	pkgs   map[string]*symPkg // by import path
	uses   map[string][]useSite
	ifaces []*types.Interface // interfaces non-test code names or passes
	seen   map[types.Type]bool
	// reads and testReads hold the declaration positions of the struct
	// fields that non-test and test code read. A position names a field
	// alike in a package's non-test and test-variant type-checks.
	reads, testReads map[token.Pos]bool
}

// scanDeadSymbols applies the dead-symbol rules to the module rooted at
// root and returns the findings in package-path and source order.
func scanDeadSymbols(root string) ([]deadFinding, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	s := &symbolScan{
		pkgs: map[string]*symPkg{}, uses: map[string][]useSite{}, seen: map[types.Type]bool{},
		reads: map[token.Pos]bool{}, testReads: map[token.Pos]bool{},
	}
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			s.module = f[1]
		}
	}
	if s.module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}
	if err := s.parse(root); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(s.pkgs))
	for p := range s.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := s.check(p); err != nil {
			return nil, err
		}
	}
	for _, p := range paths {
		if err := s.checkTests(s.pkgs[p]); err != nil {
			return nil, err
		}
	}
	for _, std := range [][2]string{{"fmt", "Stringer"}, {"sort", "Interface"}} {
		pkg, err := symStd().Import(std[0])
		if err != nil {
			return nil, err
		}
		s.collectIfaces(pkg.Scope().Lookup(std[1]).Type())
	}
	s.collectIfaces(types.Universe.Lookup("error").Type())
	var out []deadFinding
	for _, p := range paths {
		out = append(out, s.findings(root, s.pkgs[p])...)
		out = append(out, s.fieldFindings(root, s.pkgs[p])...)
	}
	return out, nil
}

// parse reads every package directory under root, skipping testdata and
// hidden directories, and keeps the files the host's build constraints
// select.
func (s *symbolScan) parse(root string) error {
	return filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		sp := &symPkg{dir: filepath.ToSlash(rel), path: path.Join(s.module, filepath.ToSlash(rel)), name: bp.Name}
		for _, set := range []struct {
			names []string
			into  *[]*ast.File
		}{{bp.GoFiles, &sp.files}, {bp.TestGoFiles, &sp.tests}, {bp.XTestGoFiles, &sp.xtests}} {
			for _, n := range set.names {
				f, err := parser.ParseFile(symFset, filepath.Join(p, n), nil, parser.ParseComments)
				if err != nil {
					return err
				}
				*set.into = append(*set.into, f)
			}
		}
		s.pkgs[sp.path] = sp
		return nil
	})
}

// Import type-checks a module package from source on first use and hands
// every other path to the shared standard-library importer.
func (s *symbolScan) Import(p string) (*types.Package, error) {
	if _, ok := s.pkgs[p]; ok {
		return s.check(p)
	}
	return symStd().Import(p)
}

// check type-checks a package's non-test files and records their uses.
func (s *symbolScan) check(p string) (*types.Package, error) {
	sp := s.pkgs[p]
	if sp.pkg != nil {
		return sp.pkg, nil
	}
	sp.info = &types.Info{
		Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(p, symFset, sp.files, sp.info)
	if err != nil {
		return nil, err
	}
	sp.pkg = pkg
	s.record(sp.info, sp.dir, false, nil)
	recordFieldReads(sp.info, sp.files, false, s.reads)
	for _, tv := range sp.info.Types {
		s.collectIfaces(tv.Type)
	}
	for _, obj := range sp.info.Defs {
		if obj != nil {
			s.collectIfaces(obj.Type())
		}
	}
	return pkg, nil
}

// checkTests type-checks a package together with its in-package tests,
// then its external test package against that, and records the uses
// the test files make.
func (s *symbolScan) checkTests(sp *symPkg) error {
	under := sp.pkg
	if len(sp.tests) > 0 {
		info := newTestInfo()
		pkg, err := (&types.Config{Importer: s}).Check(sp.path, symFset, append(append([]*ast.File{}, sp.files...), sp.tests...), info)
		if err != nil {
			return err
		}
		s.record(info, sp.dir, true, sp.tests)
		recordFieldReads(info, sp.tests, true, s.testReads)
		under = pkg
	}
	if len(sp.xtests) > 0 {
		info := newTestInfo()
		// As go test does, packages that import the package under test
		// are rebuilt against its test variant.
		rebuilt := map[string]*types.Package{sp.path: under}
		var imp importerFunc
		imp = func(p string) (*types.Package, error) {
			if pkg, ok := rebuilt[p]; ok {
				return pkg, nil
			}
			if dep, ok := s.pkgs[p]; !ok || !s.dependsOn(dep.pkg, sp.path) {
				return s.Import(p)
			}
			pkg, err := (&types.Config{Importer: imp}).Check(p, symFset, s.pkgs[p].files, nil)
			rebuilt[p] = pkg
			return pkg, err
		}
		if _, err := (&types.Config{Importer: imp}).Check(sp.path+"_test", symFset, sp.xtests, info); err != nil {
			return err
		}
		s.record(info, sp.dir, true, nil)
		recordFieldReads(info, sp.xtests, false, s.testReads)
	}
	return nil
}

func newTestInfo() *types.Info {
	return &types.Info{
		Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// recordFieldReads adds to into the declaration position of every
// struct field that files read; with only set, it ignores what info
// holds for other files. A composite-literal key, an assignment's
// target and an ++/-- operand write their field; any other use reads
// it. A promoted selection reads each embedded field it passes through,
// and a struct compared with == or != or used as a map key has every
// field read by the comparison.
func recordFieldReads(info *types.Info, files []*ast.File, only bool, into map[token.Pos]bool) {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							writes[id] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					readAllFields(info.TypeOf(n.X), into)
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] && (!only || within(id.Pos(), files)) {
			into[v.Origin().Pos()] = true
		}
	}
	for sel, selection := range info.Selections {
		if only && !within(sel.Pos(), files) {
			continue
		}
		t, path := selection.Recv(), selection.Index()
		for _, i := range path[:len(path)-1] {
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			into[st.Field(i).Origin().Pos()] = true
			t = st.Field(i).Type()
		}
	}
	for e, tv := range info.Types {
		if m, ok := tv.Type.(*types.Map); ok && (!only || within(e.Pos(), files)) {
			readAllFields(m.Key(), into)
		}
	}
}

// readAllFields marks every field of a struct type read, through nested
// structs and arrays, as comparing two values of it does.
func readAllFields(t types.Type, into map[token.Pos]bool) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			into[u.Field(i).Origin().Pos()] = true
			readAllFields(u.Field(i).Type(), into)
		}
	case *types.Array:
		readAllFields(u.Elem(), into)
	}
}

// dependsOn reports whether pkg imports the package at path, directly
// or not.
func (s *symbolScan) dependsOn(pkg *types.Package, path string) bool {
	for _, imp := range pkg.Imports() {
		if imp.Path() == path || s.pkgs[imp.Path()] != nil && s.dependsOn(imp, path) {
			return true
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// record notes each use in info of a name the module declares; with only
// set, it keeps the uses inside those files.
func (s *symbolScan) record(info *types.Info, dir string, test bool, only []*ast.File) {
	for id, obj := range info.Uses {
		key := s.key(obj)
		if key == "" {
			continue
		}
		if only != nil && !within(id.Pos(), only) {
			continue
		}
		s.uses[key] = append(s.uses[key], useSite{pos: id.Pos(), dir: dir, test: test})
	}
}

func within(pos token.Pos, files []*ast.File) bool {
	for _, f := range files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return true
		}
	}
	return false
}

// key names a package-level object or a method of a named type of the
// module by import path, so that the test-variant and the non-test
// type-checks of one package name it alike; any other object gets "".
func (s *symbolScan) key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	p := strings.TrimSuffix(obj.Pkg().Path(), "_test")
	if _, ok := s.pkgs[p]; !ok {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if fn.Type().(*types.Signature).Recv() != nil {
			if named := recvType(fn); named != nil {
				return p + "." + named.Obj().Name() + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return p + "." + obj.Name()
}

// recvType returns the named type method fn is declared on, or nil.
func recvType(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// collectIfaces gathers every interface with methods that t names,
// directly or through its element, parameter and result types.
func (s *symbolScan) collectIfaces(t types.Type) {
	if t == nil || s.seen[t] {
		return
	}
	s.seen[t] = true
	switch t := t.(type) {
	case *types.Alias:
		s.collectIfaces(types.Unalias(t))
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			s.ifaces = append(s.ifaces, it)
		}
		for i := 0; i < t.TypeArgs().Len(); i++ {
			s.collectIfaces(t.TypeArgs().At(i))
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			s.ifaces = append(s.ifaces, t)
		}
	case *types.Pointer:
		s.collectIfaces(t.Elem())
	case *types.Slice:
		s.collectIfaces(t.Elem())
	case *types.Array:
		s.collectIfaces(t.Elem())
	case *types.Chan:
		s.collectIfaces(t.Elem())
	case *types.Map:
		s.collectIfaces(t.Key())
		s.collectIfaces(t.Elem())
	case *types.Signature:
		s.collectIfaces(t.Params())
		s.collectIfaces(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			s.collectIfaces(t.At(i).Type())
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			s.collectIfaces(t.Field(i).Type())
		}
	}
}

// implements reports whether method fn completes an interface that the
// program uses, or is an error-chain hook that errors.Is and errors.As
// reach.
func (s *symbolScan) implements(fn *types.Func) bool {
	switch fn.Name() {
	case "Unwrap", "Is", "As":
		return true
	}
	named := recvType(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range s.ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// findings applies the rules to the declarations in sp's non-test,
// non-generated files.
func (s *symbolScan) findings(root string, sp *symPkg) []deadFinding {
	if sp.dir != "." && !strings.HasPrefix(sp.dir, "internal/") {
		return nil
	}
	type span struct{ from, to token.Pos }
	type decl struct {
		obj   types.Object
		spans []span
	}
	var decls []*decl
	byType := map[string]*decl{}
	for _, f := range sp.files {
		if ast.IsGenerated(f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Name.Name == "init" || d.Name.Name == "main" && d.Recv == nil {
					continue
				}
				decls = append(decls, &decl{obj: sp.info.Defs[d.Name], spans: []span{{d.Pos(), d.End()}}})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						td := &decl{obj: sp.info.Defs[spec.Name], spans: []span{{spec.Pos(), spec.End()}}}
						decls = append(decls, td)
						byType[spec.Name.Name] = td
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							if n.Name != "_" {
								decls = append(decls, &decl{obj: sp.info.Defs[n], spans: []span{{spec.Pos(), spec.End()}}})
							}
						}
					}
				}
			}
		}
	}
	// A type's own methods do not keep it alive.
	for _, f := range sp.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				if fn, ok := sp.info.Defs[fd.Name].(*types.Func); ok {
					if named := recvType(fn); named != nil && byType[named.Obj().Name()] != nil {
						td := byType[named.Obj().Name()]
						td.spans = append(td.spans, span{fd.Pos(), fd.End()})
					}
				}
			}
		}
	}
	// The root package is a facade: a use inside it keeps a name only
	// when it sits in a name that code outside the root keeps.
	facade := sp.dir == "."
	inside := func(d *decl, pos token.Pos) bool {
		for _, r := range d.spans {
			if r.from <= pos && pos < r.to {
				return true
			}
		}
		return false
	}
	live := map[*decl]bool{}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if d.obj == nil || live[d] {
				continue
			}
			for _, u := range s.uses[s.key(d.obj)] {
				if u.test || inside(d, u.pos) {
					continue
				}
				keeps := !facade || u.dir != sp.dir
				for i := 0; !keeps && i < len(decls); i++ {
					keeps = live[decls[i]] && inside(decls[i], u.pos)
				}
				if keeps {
					live[d], changed = true, true
					break
				}
			}
		}
	}
	var out []deadFinding
	for _, d := range decls {
		if d.obj == nil || live[d] {
			continue
		}
		key := s.key(d.obj)
		var ownTest, otherTest bool
		for _, u := range s.uses[key] {
			switch {
			case !u.test || inside(d, u.pos):
			case u.dir == sp.dir:
				ownTest = true
			default:
				otherTest = true
			}
		}
		if fn, ok := d.obj.(*types.Func); ok && recvType(fn) != nil && s.implements(fn) {
			continue
		}
		var why string
		switch {
		case !d.obj.Exported():
			if ownTest || otherTest || sp.dir == "." {
				continue
			}
			why = "unexported and used nowhere"
		case otherTest:
			continue
		case facade:
			why = "exported but used by nothing outside the root package"
		case ownTest:
			why = "exported but used only by its own package's tests"
		default:
			why = "exported but used nowhere"
		}
		pos := symFset.Position(d.obj.Pos())
		file, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			file = pos.Filename
		}
		out = append(out, deadFinding{
			name: sp.name + "." + strings.TrimPrefix(key, sp.path+"."),
			pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line),
			why:  why,
		})
	}
	return out
}

// fieldFindings applies the field rule to the struct types declared at
// package level in sp's non-test, non-generated files.
func (s *symbolScan) fieldFindings(root string, sp *symPkg) []deadFinding {
	if sp.dir != "." && !strings.HasPrefix(sp.dir, "internal/") {
		return nil
	}
	var out []deadFinding
	for _, f := range sp.files {
		if ast.IsGenerated(f) {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				obj := sp.info.Defs[ts.Name]
				if _, lit := ts.Type.(*ast.StructType); !lit || obj == nil {
					continue
				}
				st := obj.Type().Underlying().(*types.Struct)
				for i := 0; i < st.NumFields(); i++ {
					fv := st.Field(i)
					if fv.Name() == "_" || s.reads[fv.Pos()] {
						continue
					}
					if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
						continue
					}
					why := "field never read"
					if s.testReads[fv.Pos()] {
						why = "field read only by tests"
					}
					pos := symFset.Position(fv.Pos())
					file, err := filepath.Rel(root, pos.Filename)
					if err != nil {
						file = pos.Filename
					}
					out = append(out, deadFinding{
						name: sp.name + "." + ts.Name.Name + "." + fv.Name(),
						pos:  fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line),
						why:  why,
					})
				}
			}
		}
	}
	return out
}
