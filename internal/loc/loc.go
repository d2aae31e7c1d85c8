// Package loc classifies Go source lines into protocol logic vs
// error-checking/control overhead, for experiment E2 — the paper's §1
// claim that hand-written protocol code is ≥50% error handling.
//
// Classification is syntactic (go/ast, no type information):
//
//   - an `if` statement whose condition involves an error-ish identifier
//     (err, *Err*, comparison to nil) is overhead, including its body;
//   - `return` statements that propagate or construct errors are overhead;
//   - explicit bounds/length/consistency checks (conditions comparing
//     len(...) or index arithmetic) are overhead;
//   - everything else inside function bodies is protocol logic.
//
// Lines outside functions (types, imports, docs) are not counted in
// either bucket: the fraction is over executable lines. Only a line that
// carries a token counts, so a comment or blank line inside a
// multi-line statement counts as neither code nor overhead.
//
// Classification is a pure function over parsed source files; concurrent
// runs on distinct inputs are safe.
package loc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"strings"
)

// Report summarises one source file or set.
type Report struct {
	// CodeLines is the number of executable lines inside functions.
	CodeLines int
	// OverheadLines is the subset classified as error checking/control.
	OverheadLines int
}

// Fraction returns overhead lines / code lines (0 when empty).
func (r Report) Fraction() float64 {
	if r.CodeLines == 0 {
		return 0
	}
	return float64(r.OverheadLines) / float64(r.CodeLines)
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("code=%d overhead=%d (%.1f%%)", r.CodeLines, r.OverheadLines, 100*r.Fraction())
}

// AnalyzeSource classifies a Go source file's contents.
func AnalyzeSource(filename, src string) (Report, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		return Report{}, fmt.Errorf("loc: %w", err)
	}

	codeLines := make(map[int]bool)
	overheadLines := make(map[int]bool)

	markRange := func(m map[int]bool, from, to token.Pos) {
		start := fset.Position(from).Line
		end := fset.Position(to).Line
		for l := start; l <= end; l++ {
			m[l] = true
		}
	}

	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		// Every statement line inside the body is code. Blocks are
		// skipped as markers (their braces are not statements), but
		// their children are visited.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if _, isBlock := n.(*ast.BlockStmt); isBlock {
				return true
			}
			if _, isStmt := n.(ast.Stmt); isStmt {
				markRange(codeLines, n.Pos(), n.End())
			}
			return true
		})
		// Classify overhead constructs.
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IfStmt:
				if isOverheadCond(s.Cond) {
					markRange(overheadLines, s.Pos(), s.End())
					return false // the whole guarded block is overhead
				}
			case *ast.ReturnStmt:
				if returnsError(s) {
					markRange(overheadLines, s.Pos(), s.End())
				}
			}
			return true
		})
	}

	tokenLines := linesWithTokens(fset.File(file.Pos()), src)
	var rep Report
	for l := range codeLines {
		if !tokenLines[l] {
			continue
		}
		rep.CodeLines++
		if overheadLines[l] {
			rep.OverheadLines++
		}
	}
	return rep, nil
}

// linesWithTokens returns the lines of src that carry a token other than
// a comment; a multi-line raw string marks every line it spans. f is
// src's entry in the parse's file set.
func linesWithTokens(f *token.File, src string) map[int]bool {
	var sc scanner.Scanner
	sc.Init(f, []byte(src), nil, 0)
	lines := make(map[int]bool)
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			return lines
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line end, not written
		}
		line := f.Line(pos)
		for l := line; l <= line+strings.Count(lit, "\n"); l++ {
			lines[l] = true
		}
	}
}

// isOverheadCond reports whether an if-condition is an error/validity
// check rather than protocol logic.
func isOverheadCond(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			name := strings.ToLower(e.Name)
			if name == "err" || strings.HasSuffix(name, "err") || strings.HasPrefix(name, "err") {
				found = true
			}
		case *ast.BinaryExpr:
			// Comparisons against nil are validity checks.
			if isNil(e.X) || isNil(e.Y) {
				found = true
			}
			// Bounds/length checks: len(...) compared with something.
			if isLenCall(e.X) || isLenCall(e.Y) {
				switch e.Op {
				case token.LSS, token.LEQ, token.GTR, token.GEQ, token.NEQ:
					found = true
				}
			}
		}
		return !found
	})
	return found
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func isLenCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "len"
}

// returnsError reports whether a return statement propagates or
// constructs an error.
func returnsError(s *ast.ReturnStmt) bool {
	for _, res := range s.Results {
		found := false
		ast.Inspect(res, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.Ident:
				name := strings.ToLower(e.Name)
				if name == "err" || strings.HasSuffix(name, "error") {
					found = true
				}
			case *ast.SelectorExpr:
				if id, ok := e.X.(*ast.Ident); ok {
					if (id.Name == "fmt" && e.Sel.Name == "Errorf") ||
						(id.Name == "errors" && (e.Sel.Name == "New" || e.Sel.Name == "Join")) {
						found = true
					}
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// CountDSLLines counts substantive lines of a .pdsl source: non-blank,
// non-comment. DSL definitions have no error-handling lines at all — the
// checks are performed by the compiler — which is E2's second row.
func CountDSLLines(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if idx := strings.Index(l, "//"); idx >= 0 {
			l = l[:idx]
		}
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}
