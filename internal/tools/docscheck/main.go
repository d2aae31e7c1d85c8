// Command docscheck fails CI when documentation references rot: every
// `DESIGN.md §N` citation in the repository's Go sources must name a
// section that actually exists in DESIGN.md (headings of the form
// `## §N — title`), every backticked repository path in a Markdown
// file (`internal/…`, `cmd/…`, `examples/…`, `bench/…`, `docs/…`, with
// an optional `:line` suffix or trailing `.Symbol`) must name a file or
// directory that exists, and every Markdown document named by its file
// name (with any relative path prefix) in a non-test Go comment or a
// checked Markdown file must exist, relative to the repository root or
// to the naming file's own directory. In DESIGN.md, README.md and docs/,
// a backticked `pkg.Name` or `pkg.Type.Member` whose pkg is the base
// name of a package under internal/ (or protodsl, the root) must name
// an exported declaration, or a method or field of the named type, that
// exists in non-test Go source; so must every such pkg.Name(.Member)
// inside a fenced code block, where no backticks mark it. It is the docs counterpart of the
// codegen drift tests: the design document is load-bearing, so dangling
// citations are build failures, not editorial debt.
//
// Run from the repository root (CI does, via `make docscheck`):
//
//	go run ./internal/tools/docscheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

var (
	refRe     = regexp.MustCompile(`DESIGN\.md\s+§(\d+)`)
	sectionRe = regexp.MustCompile(`(?m)^##\s+§(\d+)`)
	pathRe    = regexp.MustCompile("`((?:internal|cmd|examples|bench|docs)/[A-Za-z0-9_./-]*)(?::[0-9][0-9,-]*)?`")
	symbolRe  = regexp.MustCompile(`\.[A-Za-z_][A-Za-z0-9_]*$`)
	// symRe matches an inline code span that starts with a selector:
	// pkg.Name, optionally .Member.
	symRe = regexp.MustCompile("(?:^|[^`])`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:[^A-Za-z0-9_./`][^`\n]*)?`")
	// fenceSymRe matches pkg.Name, optionally .Member, in fenced code:
	// a selector that does not continue a longer name or path.
	fenceSymRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?`)
	// fenceRe matches the opening or closing line of a fenced code block.
	fenceRe = regexp.MustCompile("^ {0,3}(?:```|~~~)")
	// docRe matches a Markdown document name with an optional relative
	// path prefix; a name inside a URL or a longer path is not matched.
	docRe = regexp.MustCompile(`(?:^|[^A-Za-z0-9_./-])((?:[A-Za-z0-9_.-]+/)*[A-Za-z0-9_-]+\.md)\b`)

	// aboutTree holds the root Markdown files held to the path rule. The
	// other root documents are history, plans and paper notes: they name
	// paths that are gone or not yet made, or quote other repositories.
	// Markdown below the root is always checked.
	aboutTree = map[string]bool{"DESIGN.md": true, "README.md": true}
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	problems, err := check(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		os.Exit(1)
	}
	fmt.Println("docscheck: all DESIGN.md §N references, doc paths, document names and package symbols resolve")
}

// sections parses the §N headings out of DESIGN.md text.
func sections(design string) map[int]bool {
	out := make(map[int]bool)
	for _, m := range sectionRe.FindAllStringSubmatch(design, -1) {
		n, err := strconv.Atoi(m[1])
		if err == nil {
			out[n] = true
		}
	}
	return out
}

// goComments returns the text of every comment in a Go source file.
func goComments(src []byte) string {
	var s scanner.Scanner
	s.Init(token.NewFileSet().AddFile("", -1, len(src)), src, nil, scanner.ScanComments)
	var b strings.Builder
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return b.String()
		}
		if tok == token.COMMENT {
			b.WriteString(lit)
			b.WriteByte('\n')
		}
	}
}

// check scans every .go file under root for DESIGN.md §N references,
// non-test Go comments for document names, and every Markdown file for
// repository paths and document names, and reports the references that
// do not resolve.
func check(root string) ([]string, error) {
	designPath := filepath.Join(root, "DESIGN.md")
	design, err := os.ReadFile(designPath)
	if err != nil {
		return nil, fmt.Errorf("cannot read %s (Go sources cite it): %w", designPath, err)
	}
	have := sections(string(design))
	if len(have) == 0 {
		return nil, fmt.Errorf("%s declares no `## §N` sections", designPath)
	}

	// Build outputs the .gitignore lists may be named though a clean
	// checkout lacks them.
	var outputs []string
	if ignore, err := os.ReadFile(filepath.Join(root, ".gitignore")); err == nil {
		for _, line := range strings.Split(string(ignore), "\n") {
			if line = strings.Trim(strings.TrimSpace(line), "/"); line != "" && !strings.HasPrefix(line, "#") {
				outputs = append(outputs, line)
			}
		}
	}
	resolves := func(path string) bool {
		for _, p := range []string{path, symbolRe.ReplaceAllString(path, "")} {
			p = strings.TrimSuffix(p, "/")
			if _, err := os.Stat(filepath.Join(root, p)); err == nil {
				return true
			}
			for _, out := range outputs {
				if p == out || strings.HasPrefix(p, out+"/") {
					return true
				}
			}
		}
		return false
	}
	// missingDocs reports each document name in text that exists neither
	// under root nor beside rel, the file that names it.
	var problems []string
	missingDocs := func(rel, text string) {
		for _, m := range docRe.FindAllStringSubmatch(text, -1) {
			_, errRoot := os.Stat(filepath.Join(root, m[1]))
			_, errDir := os.Stat(filepath.Join(root, filepath.Dir(rel), m[1]))
			if errRoot != nil && errDir != nil {
				problems = append(problems, fmt.Sprintf("%s names %s, which does not exist", rel, m[1]))
			}
		}
	}
	syms, err := symbols(root)
	if err != nil {
		return nil, err
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".md") && (aboutTree[rel] || strings.ContainsRune(rel, filepath.Separator)) {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range pathRe.FindAllStringSubmatch(string(data), -1) {
				if !resolves(m[1]) {
					problems = append(problems, fmt.Sprintf("%s names `%s`, which does not exist", rel, m[1]))
				}
			}
			missingDocs(rel, string(data))
			if aboutTree[rel] || strings.HasPrefix(filepath.ToSlash(rel), "docs/") {
				matches := symRe.FindAllStringSubmatch(string(data), -1)
				matches = append(matches, fenceSymRe.FindAllStringSubmatch(fenced(string(data)), -1)...)
				for _, m := range matches {
					if name := strings.Trim(m[1]+"."+m[2]+"."+m[3], "."); !syms.resolves(m[1], m[2], m[3]) {
						problems = append(problems, fmt.Sprintf("%s names `%s`, which no package %s declares", rel, name, m[1]))
					}
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(path, "_test.go") {
			missingDocs(rel, goComments(data))
		}
		for _, line := range strings.Split(string(data), "\n") {
			for _, m := range refRe.FindAllStringSubmatch(line, -1) {
				n, err := strconv.Atoi(m[1])
				if err != nil {
					continue
				}
				if !have[n] {
					problems = append(problems, fmt.Sprintf("%s cites DESIGN.md §%d, which does not exist", rel, n))
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(problems)
	return problems, nil
}

// fenced returns the lines of text's fenced code blocks.
func fenced(text string) string {
	var b strings.Builder
	in := false
	for _, line := range strings.Split(text, "\n") {
		if fenceRe.MatchString(line) {
			in = !in
		} else if in {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// goDecls indexes the top-level declarations of every non-test Go
// package under internal/ and of the root package, by package name.
type goDecls map[string]*pkgDecls

type pkgDecls struct {
	names   map[string]bool            // top-level names
	members map[string]map[string]bool // type name → its fields and methods
	aliases map[string][2]string       // alias type name → (package, type)
	embeds  map[string][][2]string     // type name → its embedded (package, type) pairs
}

// symbols parses the non-test Go files of root's packages. Packages that
// share a base name (the generated gen packages) share one index.
func symbols(root string) (goDecls, error) {
	out := goDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || !strings.HasPrefix(rel+"/", "internal/")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		if rel == filepath.Base(rel) {
			pkg = f.Name.Name // the root package: protodsl
		}
		out.add(pkg, f)
		return nil
	})
	return out, err
}

func (g goDecls) add(pkg string, f *ast.File) {
	p := g[pkg]
	if p == nil {
		p = &pkgDecls{names: map[string]bool{}, members: map[string]map[string]bool{}, aliases: map[string][2]string{}, embeds: map[string][][2]string{}}
		g[pkg] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	typeRef := func(e ast.Expr) ([2]string, bool) {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		switch e := e.(type) {
		case *ast.Ident:
			return [2]string{pkg, e.Name}, true
		case *ast.SelectorExpr:
			if x, ok := e.X.(*ast.Ident); ok {
				return [2]string{x.Name, e.Sel.Name}, true
			}
		}
		return [2]string{}, false
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				member(id.Name, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					name := spec.Name.Name
					p.names[name] = true
					if spec.Assign != 0 {
						if ref, ok := typeRef(spec.Type); ok {
							p.aliases[name] = ref
						}
						continue
					}
					var fields *ast.FieldList
					switch t := spec.Type.(type) {
					case *ast.StructType:
						fields = t.Fields
					case *ast.InterfaceType:
						fields = t.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							member(name, n.Name)
						}
						if len(fl.Names) == 0 {
							if ref, ok := typeRef(fl.Type); ok {
								member(name, ref[1])
								p.embeds[name] = append(p.embeds[name], ref)
							}
						}
					}
				}
			}
		}
	}
}

// resolves reports whether pkg.name (or pkg.name.member, when member is
// set) is declared. A pkg that is not indexed is not ours to check.
func (g goDecls) resolves(pkg, name, member string) bool {
	p := g[pkg]
	if p == nil {
		return true
	}
	if !p.names[name] {
		return false
	}
	return member == "" || g.hasMember(pkg, name, member, 0)
}

// hasMember looks member up on type pkg.typ, through aliases and
// embedded fields.
func (g goDecls) hasMember(pkg, typ, member string, depth int) bool {
	p := g[pkg]
	if p == nil || depth > 8 {
		return false
	}
	if ref, ok := p.aliases[typ]; ok {
		return g.hasMember(ref[0], ref[1], member, depth+1)
	}
	if p.members[typ][member] {
		return true
	}
	for _, ref := range p.embeds[typ] {
		if g.hasMember(ref[0], ref[1], member, depth+1) {
			return true
		}
	}
	return false
}
