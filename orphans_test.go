package protodsl

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
