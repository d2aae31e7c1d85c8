package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSectionsParsesHeadings(t *testing.T) {
	design := "# DESIGN\n\n## §1 — Overview\n\ntext\n\n## §2 — Mapping\n\n### not-a-section §9\n\n## §7 — Runtime\n"
	got := sections(design)
	for _, want := range []int{1, 2, 7} {
		if !got[want] {
			t.Errorf("section §%d not found", want)
		}
	}
	if got[9] {
		t.Error("### heading counted as a section")
	}
}

func TestCheckFlagsDanglingReference(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("DESIGN.md", "## §1 — A\n\n## §2 — B\n")
	write("pkg/ok.go", "package pkg\n\n// fine: see DESIGN.md §2 for details.\n")
	write("pkg/bad.go", "package pkg\n\n// dangling: DESIGN.md §6 does not exist here.\n")
	problems, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 {
		t.Fatalf("want exactly the §6 problem, got %v", problems)
	}
}

func TestCheckFlagsStalePath(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"DESIGN.md":         "## §1 — A\n",
		"internal/pkg/a.go": "package pkg\n",
		"docs/NOTES.md": "`internal/pkg` `internal/pkg/a.go:3` `internal/pkg.Symbol` `internal/*.go` `protodsl/internal/x`\n" +
			"stale: `internal/gone.go`\n",
		"CHANGES.md":      "deleted `internal/old.go`\n",
		".gitignore":      "# outputs\n/bench/out/\n",
		"bench/README.md": "traces land in `bench/out/` as `bench/out/run.json`\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || !strings.Contains(problems[0], "internal/gone.go") {
		t.Fatalf("want exactly the internal/gone.go problem, got %v", problems)
	}
}

func TestCheckErrorsWithoutDesign(t *testing.T) {
	dir := t.TempDir()
	if _, err := check(dir); err == nil {
		t.Fatal("missing DESIGN.md accepted")
	}
}

// TestRepositoryReferencesResolve runs the real check over the real
// repository: the CI docs job in test form.
func TestRepositoryReferencesResolve(t *testing.T) {
	root := "../../.." // internal/tools/docscheck -> repo root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("repo root not found: %v", err)
	}
	problems, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
