package dsl

import (
	"strings"
	"testing"

	"protodsl/examples/specs"
)

// FuzzParse throws arbitrary source at the DSL front end. The contract
// under fuzz is total: Parse either returns a protocol or an error,
// never a panic — and any source the parser accepts must also survive
// the full Compile pipeline (lowering, FSM verification, codec
// compilation) without panicking. Compile may still reject semantically
// (that is its job); it must do so with an error.
//
// Seed corpus: testdata/fuzz/FuzzParse (the canonical sources plus
// truncations and hostile edits).
func FuzzParse(f *testing.F) {
	f.Add(specs.ARQ)
	f.Add(specs.IPv4)
	f.Add("")
	f.Add("protocol P {}")
	f.Add("message M { field x: u8 }")
	// Truncations of the canonical source shake unterminated-construct
	// handling at every nesting depth.
	for _, frac := range []int{4, 2} {
		f.Add(specs.ARQ[:len(specs.ARQ)/frac])
	}
	f.Add(strings.Replace(specs.ARQ, "u8", "u999", 1))
	f.Add(strings.Replace(specs.ARQ, "{", "", 1))

	f.Fuzz(func(t *testing.T, src string) {
		// Pathological inputs (deep nesting, megabyte identifiers) are
		// legitimate parser food, but unbounded source just times the
		// fuzzer out without finding anything a smaller input wouldn't.
		if len(src) > 1<<16 {
			t.Skip()
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("Parse returned nil protocol and nil error")
		}
		if _, _, err := Compile(src); err != nil {
			// Accepted by the parser, rejected by semantics: fine, as
			// long as it is an error and not a panic.
			return
		}
	})
}
