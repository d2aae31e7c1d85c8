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

func TestCheckFlagsMissingDocument(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"DESIGN.md":          "## §1 — A\n\nTables: EXPERIMENTS.md; see README.md and https://example.org/GUIDE.md.\n",
		"README.md":          "see DESIGN.md\n",
		"bench/README.md":    "the ruler\n",
		"bench/run.go":       "package bench\n\n// See README.md and bench/README.md.\nvar s = \"LITERAL.md\"\n",
		"bench/run_test.go":  "package bench\n\n// Tests may name TESTONLY.md.\n",
		"docs/NOTES.md":      "[design](../DESIGN.md), docs/NOTES.md and `bench/README.md`; plan in PLAN.md\n",
		"CHANGES.md":         "history names OLD.md\n",
		"cmd/tool/main.go":   "// Command tool prints the tables of TABLES.md.\npackage main\n",
		"cmd/tool/README.md": "local docs\n",
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
	want := []string{
		"DESIGN.md names EXPERIMENTS.md, which does not exist",
		filepath.Join("cmd", "tool", "main.go") + " names TABLES.md, which does not exist",
		filepath.Join("docs", "NOTES.md") + " names PLAN.md, which does not exist",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

func TestCheckFlagsStaleSymbol(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"DESIGN.md": "## §1 — A\n\n" +
			"`fsm.Machine.AppendState` `fsm.Machine.StepEv(ev)` `fsm.Spec.Name` `fsm.Spec.Base` `fsm.Check` `fsm.Alias.StepEv`\n" +
			"`protodsl.Compile` `time.Duration` `bits.Len64` `fsm.go` `fsm.unexported`\n" +
			"stale: `fsm.Snapshot` `fsm.AppendState` `fsm.Machine.Gone` `fsm.Check.Member`\n",
		"README.md":   "`protodsl.Removed`\n",
		"CHANGES.md":  "history may name `fsm.Deleted`\n",
		"docs/A.md":   "`fsm.Restore`\n",
		"protodsl.go": "package protodsl\n\nfunc Compile() {}\n",
		"internal/fsm/machine.go": "package fsm\n\nimport \"x/base\"\n\n" +
			"type Machine struct{ state int }\n\n" +
			"func (m *Machine) AppendState(dst []byte) []byte { return dst }\n" +
			"func (m *Machine) StepEv(ev string) {}\n\n" +
			"type Spec struct {\n\tName string\n\tbase.Base\n}\n\n" +
			"type Alias = Machine\n\nfunc Check() {}\n",
		"internal/fsm/machine_test.go": "package fsm\n\nfunc Snapshot() {}\n",
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
	want := []string{
		"DESIGN.md names `fsm.AppendState`, which no package fsm declares",
		"DESIGN.md names `fsm.Check.Member`, which no package fsm declares",
		"DESIGN.md names `fsm.Machine.Gone`, which no package fsm declares",
		"DESIGN.md names `fsm.Snapshot`, which no package fsm declares",
		"README.md names `protodsl.Removed`, which no package protodsl declares",
		filepath.Join("docs", "A.md") + " names `fsm.Restore`, which no package fsm declares",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
}

func TestCheckFlagsStaleSymbolInFence(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"DESIGN.md": "## §1 — A\n\nprose fsm.Gone is not code\n\n" +
			"```go\nm := fsm.NewMachine(spec)\nm.Step(\"x\")\nfsm.Machine.Gone()\nres := fsm.Removed(spec)\n```\n" +
			"after the fence fsm.AlsoGone is prose again\n",
		"README.md": "```sh\ngo run ./cmd/fsm.Tool\n```\n\n~~~\nx := protodsl.Compile() // and protodsl.Removed\n~~~\n",
		"docs/A.md": "```text\ntime.Duration fsm.go mypkg.fsm.Nope internal/fsm.Check fsm.Spec.Name\n" +
			"fsm.Snapshot\n```\n",
		"CHANGES.md":  "```\nfsm.Deleted\n```\n",
		"protodsl.go": "package protodsl\n\nfunc Compile() {}\n",
		"internal/fsm/machine.go": "package fsm\n\ntype Machine struct{}\n\n" +
			"func NewMachine(s *Spec) *Machine { return nil }\n\n" +
			"type Spec struct{ Name string }\n\nfunc Check() {}\n",
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
	want := []string{
		"DESIGN.md names `fsm.Machine.Gone`, which no package fsm declares",
		"DESIGN.md names `fsm.Removed`, which no package fsm declares",
		"README.md names `protodsl.Removed`, which no package protodsl declares",
		filepath.Join("docs", "A.md") + " names `fsm.Snapshot`, which no package fsm declares",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
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
