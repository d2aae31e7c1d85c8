package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protodsl/examples/specs"
)

// The shipped protocol files, relative to this package.
var (
	arqSpec  = filepath.Join("..", "..", "examples", "specs", "arq.pdsl")
	ipv4Spec = filepath.Join("..", "..", "examples", "specs", "ipv4.pdsl")
)

func TestCheckBuiltinARQ(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"check", arqSpec}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"protocol arq: OK", "Packet (variable size)", "Sender: OK", "Receiver: OK"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCheckFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "arq.pdsl")
	if err := os.WriteFile(path, []byte(specs.ARQ), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"check", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("output: %s", out.String())
	}
}

func TestCheckRejectsBrokenSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.pdsl")
	src := `protocol bad {
	machine M {
		init state A
		event GO
		on GO from A to Missing
	}
}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"check", path}, &out); err == nil {
		t.Error("broken spec accepted")
	}
}

func TestGenEmitsGo(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"gen", "-pkg", "arqgen", arqSpec}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"package arqgen", "func EncodePacket", "type SenderReady struct"} {
		if !strings.Contains(s, want) {
			t.Errorf("generated output missing %q", want)
		}
	}
}

func TestGenUnknownBackend(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"gen", "-emit", "rust", arqSpec}, &out)
	if err == nil {
		t.Fatal("unknown -emit backend accepted")
	}
	// The error (which main prints before exiting non-zero) must name the
	// rejected backend and list the supported ones.
	for _, want := range []string{`"rust"`, "supported: go"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestGenToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.go")
	var out bytes.Buffer
	if err := run([]string{"gen", "-emit", "go", "-pkg", "gen", "-o", path, ipv4Spec}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty with -o: %q", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "func EncodeIPv4Header") {
		t.Errorf("generated file missing IPv4 codec:\n%.200s", data)
	}
}

func TestDiagram(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"diagram", arqSpec}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "message Packet:") || !strings.Contains(s, "chk (sum8)") {
		t.Errorf("diagram output:\n%s", s)
	}
}

func TestTests(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"tests", arqSpec}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"machine Sender:", "transition coverage 100%", "suite replayed: PASS"} {
		if !strings.Contains(s, want) {
			t.Errorf("tests output missing %q:\n%s", want, s)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var out bytes.Buffer
	err := run(nil, &out)
	if err == nil {
		t.Fatal("no args accepted")
	}
	// The usage message names every subcommand run dispatches.
	for _, cmd := range []string{"check", "gen", "diagram", "dot", "tests"} {
		if !strings.Contains(err.Error(), cmd) {
			t.Errorf("usage %q does not name %s", err, cmd)
		}
		if derr := run([]string{cmd}, &out); derr == nil || strings.Contains(derr.Error(), "unknown subcommand") {
			t.Errorf("%s: not dispatched (err %v)", cmd, derr)
		}
	}
	if err := run([]string{"frobnicate"}, &out); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"check"}, &out); err == nil {
		t.Error("check without file accepted")
	}
	if err := run([]string{"check", "/nonexistent/x.pdsl"}, &out); err == nil {
		t.Error("missing file accepted")
	}
}
