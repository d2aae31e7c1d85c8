// Command docscheck fails CI when documentation references rot: every
// `DESIGN.md §N` citation in the repository's Go sources must name a
// section that actually exists in DESIGN.md (headings of the form
// `## §N — title`), every backticked repository path in a Markdown
// file (`internal/…`, `cmd/…`, `examples/…`, `bench/…`, `docs/…`, with
// an optional `:line` suffix or trailing `.Symbol`) must name a file or
// directory that exists, and every Markdown document named by its file
// name (with any relative path prefix) in a non-test Go comment or a
// checked Markdown file must exist, relative to the repository root or
// to the naming file's own directory. It is the docs counterpart of the
// codegen drift tests: the design document is load-bearing, so dangling
// citations are build failures, not editorial debt.
//
// Run from the repository root (CI does, via `make docscheck`):
//
//	go run ./internal/tools/docscheck
package main

import (
	"fmt"
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
	fmt.Println("docscheck: all DESIGN.md §N references, doc paths and document names resolve")
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
