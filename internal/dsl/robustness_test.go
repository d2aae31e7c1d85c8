package dsl

import (
	"strings"
	"testing"
	"testing/quick"

	"protodsl/examples/specs"
)

// TestQuickParserNeverPanics: the DSL parser is total — arbitrary input
// returns a value or an error, never a panic (the compiler is part of the
// trusted path, so crash-on-input is a bug class of its own).
func TestQuickParserNeverPanics(t *testing.T) {
	f := func(junk []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Parse(string(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickMutatedARQNeverPanics feeds structurally plausible but mangled
// sources: the canonical ARQ text with random edits.
func TestQuickMutatedARQNeverPanics(t *testing.T) {
	base := specs.ARQ
	f := func(pos uint16, repl byte, del uint8) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		src := []byte(base)
		p := int(pos) % len(src)
		src[p] = repl
		// Also delete a random line.
		lines := strings.Split(string(src), "\n")
		if len(lines) > 1 {
			d := int(del) % len(lines)
			lines = append(lines[:d], lines[d+1:]...)
		}
		_, _, _ = Compile(strings.Join(lines, "\n"))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCompileIdempotent: compiling the same source twice yields machines
// that check identically (no hidden mutation of shared state).
func TestCompileIdempotent(t *testing.T) {
	p1, r1, err := Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	p2, r2, err := Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatal("report count differs")
	}
	for i := range r1 {
		if len(r1[i].Issues) != len(r2[i].Issues) {
			t.Errorf("machine %s: issue count differs", p1.Machines[i].Name)
		}
	}
	if len(p1.Machines[0].Transitions) != len(p2.Machines[0].Transitions) {
		t.Error("transitions differ between compiles")
	}
}
