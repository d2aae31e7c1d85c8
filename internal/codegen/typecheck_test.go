package codegen

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"protodsl/internal/dsl"
	"protodsl/internal/expr"
)

// generatedSpec is one spec input compiled and generated in memory.
type generatedSpec struct {
	path  string
	proto *dsl.Protocol
	src   []byte
}

// generateInputs generates a package for every examples/specs/*.pdsl and
// for testdata/collision.pdsl, whose event parameters reuse the names of
// the generator's receivers and locals.
func generateInputs(t *testing.T) []generatedSpec {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.pdsl"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no spec files: %v", err)
	}
	paths = append(paths, filepath.Join("testdata", "collision.pdsl"))
	var out []generatedSpec
	for _, path := range paths {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		proto, _, err := dsl.Compile(string(text))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		src, err := Generate(proto, Options{Package: "gen"})
		if err != nil {
			t.Fatalf("%s: generate: %v", path, err)
		}
		out = append(out, generatedSpec{path: path, proto: proto, src: src})
	}
	return out
}

// The source importer parses fmt and genrt once; every check shares it.
var (
	checkFset     = token.NewFileSet()
	checkImporter = sync.OnceValue(func() types.Importer {
		return importer.ForCompiler(checkFset, "source", nil)
	})
)

// parseGo parses one Go file.
func parseGo(t *testing.T, name, src string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(checkFset, name, src, 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return f
}

// checkGenerated type-checks generated source as package gen.
func checkGenerated(t *testing.T, name string, src []byte) (*types.Package, error) {
	t.Helper()
	conf := types.Config{Importer: checkImporter()}
	return conf.Check("gen", checkFset, []*ast.File{parseGo(t, name, string(src))}, nil)
}

// probe type-checks decl in a package that dot-imports the checked
// generated package gen, so decl names its types unqualified.
func probe(t *testing.T, gen *types.Package, decl string) error {
	t.Helper()
	file := parseGo(t, "probe.go", "package probe\n\nimport . \"gen\"\n\n"+decl+"\n")
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if path == gen.Path() {
			return gen, nil
		}
		return checkImporter().Import(path)
	})}
	_, err := conf.Check("probe", checkFset, []*ast.File{file}, nil)
	return err
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// probeMismatches type-checks one probe per (state type, transition
// method) pair of every machine in proto,
//
//	func _(s <Machine><State>) { _ = s.<Method> }
//
// against the generated package gen. It returns the number of probes and
// every probe whose verdict disagrees with the spec: a probe must
// type-check exactly when the spec has that transition from that state.
func probeMismatches(t *testing.T, proto *dsl.Protocol, gen *types.Package) (probes int, bad []string) {
	t.Helper()
	for _, m := range proto.Machines {
		legal, seen := make(map[string]bool), make(map[string]bool)
		var methods []string
		for _, tr := range m.Transitions {
			method := goName(tr.Name)
			legal[tr.From+"."+method] = true
			if !seen[method] {
				seen[method] = true
				methods = append(methods, method)
			}
		}
		for _, st := range m.States {
			stateType := goName(m.Name) + goName(st.Name)
			for _, method := range methods {
				err := probe(t, gen, fmt.Sprintf("func _(s %s) { _ = s.%s }", stateType, method))
				probes++
				if want := legal[st.Name+"."+method]; want != (err == nil) {
					bad = append(bad, fmt.Sprintf("%s.%s: spec has transition %v, type-check error %v",
						stateType, method, want, err))
				}
			}
		}
	}
	return probes, bad
}

// TestTypedTransitionsTypeCheck pins the typed-state API's claim
// (DESIGN.md §2): for every machine of every spec, a transition method
// exists on exactly the state types the spec lets it fire from, and a
// message parameter accepts only the decoder's Checked witness. A
// generator that put every method on every state would fail it.
func TestTypedTransitionsTypeCheck(t *testing.T) {
	total := 0
	for _, in := range generateInputs(t) {
		gen, err := checkGenerated(t, in.path+".go", in.src)
		if err != nil {
			t.Errorf("%s: generated package does not type-check: %v", in.path, err)
			continue
		}
		n, bad := probeMismatches(t, in.proto, gen)
		total += n
		for _, b := range bad {
			t.Errorf("%s: %s", in.path, b)
		}
		checkWitnessParams(t, in, gen)

		// The comparison must go red on a generator that puts every
		// transition method on every state type: once per illegal pair.
		mutant, illegal := everyMethodOnEveryState(in)
		gen, err = checkGenerated(t, in.path+".mutant.go", mutant)
		if err != nil {
			t.Fatalf("%s: mutant does not type-check: %v", in.path, err)
		}
		if _, bad := probeMismatches(t, in.proto, gen); len(bad) != illegal {
			t.Errorf("%s: mutant gives %d mismatches, want %d (one per illegal pair)", in.path, len(bad), illegal)
		}
	}
	t.Logf("%d transition probes", total)
}

// everyMethodOnEveryState appends to the generated source a stub of
// every transition method on every state type that lacks it, and
// returns the mutant with the number of stubs added.
func everyMethodOnEveryState(in generatedSpec) (mutant []byte, illegal int) {
	var b strings.Builder
	b.Write(in.src)
	for _, m := range in.proto.Machines {
		for _, st := range m.States {
			has := make(map[string]bool)
			for _, tr := range m.Transitions {
				if tr.From == st.Name {
					has[goName(tr.Name)] = true
				}
			}
			for _, tr := range m.Transitions {
				if method := goName(tr.Name); !has[method] {
					has[method] = true
					illegal++
					fmt.Fprintf(&b, "\nfunc (%s%s) %s() {}\n", goName(m.Name), goName(st.Name), method)
				}
			}
		}
	}
	return []byte(b.String()), illegal
}

// checkWitnessParams calls every transition that takes a message with
// the Checked witness, which must type-check, and with the plain
// decoded-from-nowhere message, which must not.
func checkWitnessParams(t *testing.T, in generatedSpec, gen *types.Package) {
	t.Helper()
	for _, m := range in.proto.Machines {
		for _, tr := range m.Transitions {
			ev, _ := m.EventByName(tr.Event)
			for k, p := range ev.Params {
				if p.Type.Kind != expr.KindMsg {
					continue
				}
				call := func(plain bool) error {
					var params, args []string
					for i, q := range ev.Params {
						typ := goParamType(q.Type)
						if plain && i == k {
							typ = goName(q.Type.MsgName)
						}
						params = append(params, fmt.Sprintf("a%d %s", i, typ))
						args = append(args, fmt.Sprintf("a%d", i))
					}
					return probe(t, gen, fmt.Sprintf("func _(s %s%s, %s) { s.%s(%s) }",
						goName(m.Name), goName(tr.From), strings.Join(params, ", "),
						goName(tr.Name), strings.Join(args, ", ")))
				}
				what := fmt.Sprintf("%s: %s%s.%s(%s)", in.path, goName(m.Name), goName(tr.From), goName(tr.Name), p.Name)
				if err := call(false); err != nil {
					t.Errorf("%s with a Checked%s does not type-check: %v", what, goName(p.Type.MsgName), err)
				}
				err := call(true)
				if err == nil || !strings.Contains(err.Error(), "Checked"+goName(p.Type.MsgName)+" value in argument") {
					t.Errorf("%s with a plain %s: err = %v, want a Checked%s mismatch",
						what, goName(p.Type.MsgName), err, goName(p.Type.MsgName))
				}
			}
		}
	}
}
