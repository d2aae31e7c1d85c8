package dsl

import (
	"bytes"
	"errors"
	"testing"

	"protodsl/examples/specs"
	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// This file differentially tests the slot-compiled wire programs against
// the map-based layout codec: for every message layout reachable from
// the canonical protocols — both compiled examples/specs sources, which
// are the only definitions the engines run — encode must agree byte for
// byte, decode must agree field for field, and every corruption of the
// wire bytes (truncations, single-byte flips) must fail with the same
// sentinel error class on both paths.

// diffLayouts gathers every layout under test, by name.
func diffLayouts(t *testing.T) map[string]*wire.Layout {
	t.Helper()
	out := make(map[string]*wire.Layout)
	for _, src := range []struct {
		name   string
		source string
	}{{"arq.pdsl", specs.ARQ}, {"ipv4.pdsl", specs.IPv4}} {
		proto, _, err := Compile(src.source)
		if err != nil {
			t.Fatalf("compile %s: %v", src.name, err)
		}
		for name, l := range proto.Layouts {
			out[src.name+"/"+name] = l
		}
	}
	return out
}

// sampleFieldValues builds a consistent plain-field assignment for the
// layout, or ok=false when the seed produces an unencodable combination
// (e.g. a wrapped length expression); those seeds are skipped.
func sampleFieldValues(m *wire.Message, seed uint64) (map[string]expr.Value, bool) {
	vals := make(map[string]expr.Value)
	// Length fields referenced by LenField byte fields are auto-filled by
	// the encoder; leave them out.
	autoLen := make(map[string]bool)
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Kind == wire.FieldBytes && f.LenKind == wire.LenField {
			autoLen[f.LenField] = true
		}
	}
	// Pass 1: uint fields, so length expressions can be evaluated.
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Kind != wire.FieldUint || f.Compute != nil || autoLen[f.Name] {
			continue
		}
		v := seed*3 + 5 + uint64(i) // +5 keeps e.g. IHL-style fields above their floor
		if f.Bits < 4 {
			v = seed % (1 << uint(f.Bits))
		} else if f.Bits < 64 {
			v %= 1 << uint(f.Bits)
		}
		vals[f.Name] = expr.Uint(v, f.Bits)
	}
	// Pass 2: byte fields sized per their discipline.
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Kind != wire.FieldBytes {
			continue
		}
		var n int
		switch f.LenKind {
		case wire.LenFixed:
			n = f.LenBytes
		case wire.LenField, wire.LenRest:
			n = int(seed*7) % 160
		case wire.LenExpr:
			scope := expr.MapScope(vals)
			v, err := expr.Eval(f.LenExpr, scope)
			if err != nil || v.AsUint() > 4096 {
				return nil, false
			}
			n = int(v.AsUint())
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(seed + uint64(j))
		}
		vals[f.Name] = expr.Bytes(b)
	}
	return vals, true
}

// sameErrClass asserts both errors fall in the same sentinel class (or
// are both nil).
func sameErrClass(t *testing.T, where string, progErr, mapErr error) {
	t.Helper()
	if (progErr == nil) != (mapErr == nil) {
		t.Fatalf("%s: program err %v, layout err %v", where, progErr, mapErr)
	}
	for _, sentinel := range []error{
		wire.ErrShortBuffer, wire.ErrChecksumMismatch, wire.ErrFieldMismatch,
		wire.ErrTrailingBytes, wire.ErrBadFieldValue, wire.ErrMissingField,
	} {
		if errors.Is(progErr, sentinel) != errors.Is(mapErr, sentinel) {
			t.Fatalf("%s: class mismatch on %v: program %v, layout %v",
				where, sentinel, progErr, mapErr)
		}
	}
}

func TestSlotProgramDifferential(t *testing.T) {
	for name, layout := range diffLayouts(t) {
		t.Run(name, func(t *testing.T) {
			prog := layout.Program()
			m := layout.Message()
			tested := 0
			for seed := uint64(0); seed < 12; seed++ {
				vals, ok := sampleFieldValues(m, seed)
				if !ok {
					continue
				}
				want, mapErr := layout.Encode(vals)

				frame := prog.NewFrame()
				for fname, v := range vals {
					slot, ok := prog.Slot(fname)
					if !ok {
						t.Fatalf("no slot for %q", fname)
					}
					frame.Set(slot, v)
				}
				got, progErr := prog.AppendEncode(nil, frame)
				sameErrClass(t, "encode", progErr, mapErr)
				if mapErr != nil {
					continue
				}
				tested++
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: program %x != layout %x", seed, got, want)
				}

				// Decode agreement, field by field.
				mapVals, err := layout.Decode(want)
				if err != nil {
					t.Fatalf("seed %d: layout decode: %v", seed, err)
				}
				decFrame := prog.NewFrame()
				data := append([]byte(nil), want...)
				if err := prog.DecodeInto(decFrame, data); err != nil {
					t.Fatalf("seed %d: program decode: %v", seed, err)
				}
				for i := range m.Fields {
					fname := m.Fields[i].Name
					slot, _ := prog.Slot(fname)
					pv := decFrame.Get(slot)
					mv, ok := mapVals[fname]
					if !ok {
						t.Fatalf("seed %d: layout decode lacks %q", seed, fname)
					}
					if !pv.Equal(mv) {
						t.Fatalf("seed %d field %s: program %v != layout %v", seed, fname, pv, mv)
					}
				}

				// Corruption sweep: every truncation and every single-byte
				// flip must fail (or pass) identically, class for class.
				for cut := 0; cut <= len(want); cut++ {
					trunc := append([]byte(nil), want[:cut]...)
					progErr := prog.DecodeInto(decFrame, trunc)
					_, mapErr := layout.Decode(append([]byte(nil), want[:cut]...))
					sameErrClass(t, "truncate", progErr, mapErr)
				}
				for pos := 0; pos < len(want); pos++ {
					flip := append([]byte(nil), want...)
					flip[pos] ^= 0x80
					progErr := prog.DecodeInto(decFrame, flip)
					flip2 := append([]byte(nil), want...)
					flip2[pos] ^= 0x80
					_, mapErr := layout.Decode(flip2)
					sameErrClass(t, "flip", progErr, mapErr)
				}
			}
			if tested == 0 {
				t.Fatalf("no seed produced an encodable message for %s", name)
			}
		})
	}
}
