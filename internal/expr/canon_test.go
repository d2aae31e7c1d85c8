package expr

import (
	"bytes"
	"testing"
)

func canonValues() []Value {
	shape := NewMsgShape("Pkt", []string{"seq", "payload"})
	fr := NewFrame(shape.NumFields())
	fr.Set(0, U8(7))
	fr.Set(1, Bytes([]byte{0xAA}))
	partial := NewFrame(shape.NumFields())
	partial.Set(0, U16(7)) // slot 1 left invalid: reads as a missing field
	return []Value{
		Bool(false), Bool(true),
		U8(0), U8(1), U8(255),
		U16(1), U32(1), Uint(1, 64), // same number, distinct widths
		U16(0xFFFF), U32(0xFFFFFFFF), Uint(^uint64(0), 64),
		Bytes(nil), Bytes([]byte{0}), Bytes([]byte{0, 0}), Bytes([]byte{1, 2, 3}),
		Str(""), Str("x"), Str("xy"),
		Msg("M", nil),
		Msg("M", map[string]Value{"a": U8(1)}),
		Msg("M", map[string]Value{"a": U8(2)}),
		Msg("M", map[string]Value{"b": U8(1)}),
		Msg("N", map[string]Value{"a": U8(1)}),
		Msg("M", map[string]Value{"a": U8(1), "b": Str("s")}),
		Msg("Outer", map[string]Value{"in": Msg("Inner", map[string]Value{"f": Bool(true)})}),
		FrameMsg(shape, fr),
		FrameMsg(shape, partial),
	}
}

func TestCanonRoundTrip(t *testing.T) {
	for _, v := range canonValues() {
		enc := v.AppendCanon(nil)
		got, rest, err := DecodeCanon(enc)
		if err != nil {
			t.Fatalf("DecodeCanon(%s): %v", v, err)
		}
		if len(rest) != 0 {
			t.Fatalf("DecodeCanon(%s): %d leftover bytes", v, len(rest))
		}
		if !got.Equal(v) {
			t.Fatalf("round trip of %s gave %s", v, got)
		}
		if got.Kind() == KindUint && got.Bits() != v.Bits() {
			t.Fatalf("round trip of %s lost width: got %d bits", v, got.Bits())
		}
		// Re-encoding the decoded value must reproduce the bytes exactly:
		// canonical form is unique per value.
		if re := got.AppendCanon(nil); !bytes.Equal(re, enc) {
			t.Fatalf("re-encode of %s differs: %x vs %x", v, re, enc)
		}
	}
}

func TestCanonInjective(t *testing.T) {
	seen := make(map[string]Value)
	for _, v := range canonValues() {
		k := string(v.AppendCanon(nil))
		if prev, dup := seen[k]; dup {
			// FrameMsg and Msg builds of the same message are supposed
			// to collide; anything else is an injectivity bug.
			if !prev.Equal(v) {
				t.Errorf("canon collision: %s vs %s (%x)", prev, v, k)
			}
			continue
		}
		seen[k] = v
	}
}

func TestCanonMapAndFrameMsgsEncodeIdentically(t *testing.T) {
	shape := NewMsgShape("Pkt", []string{"seq", "payload"})
	fr := NewFrame(shape.NumFields())
	fr.Set(0, U8(7))
	fr.Set(1, Bytes([]byte{0xAA}))
	framed := FrameMsg(shape, fr)
	mapped := Msg("Pkt", map[string]Value{"seq": U8(7), "payload": Bytes([]byte{0xAA})})
	if a, b := framed.AppendCanon(nil), mapped.AppendCanon(nil); !bytes.Equal(a, b) {
		t.Fatalf("FrameMsg %x vs Msg %x", a, b)
	}
}

func TestCanonConcatenationUnambiguous(t *testing.T) {
	// Encoding a sequence of values by concatenation must decode back to
	// the same sequence — the property the model checker's global state
	// encoding relies on.
	seq := []Value{U8(1), Bytes([]byte{2, 3}), Msg("M", map[string]Value{"a": Str("x")}), Bool(true)}
	var enc []byte
	for _, v := range seq {
		enc = v.AppendCanon(enc)
	}
	rest := enc
	for i, want := range seq {
		var got Value
		var err error
		got, rest, err = DecodeCanon(rest)
		if err != nil {
			t.Fatalf("decode #%d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("decode #%d: got %s, want %s", i, got, want)
		}
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
}

func TestCanonDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":           nil,
		"unknown tag":     {0x7F},
		"truncated bool":  {canonBool},
		"bad bool":        {canonBool, 2},
		"bad width":       {canonUint, 7, 1},
		"truncated uint":  {canonUint, 8},
		"oversized uint":  append([]byte{canonUint, 8}, U16(300).AppendCanon(nil)[2:]...),
		"truncated bytes": {canonBytes, 5, 1, 2},
		"bad count":       {canonMsg, 1, 'M'},
		"truncated field": {canonMsg, 1, 'M', 2, 1, 'a', canonBool, 1},
	}
	for name, data := range cases {
		if _, _, err := DecodeCanon(data); err == nil {
			t.Errorf("%s: expected error for % x", name, data)
		}
	}
}

// TestCanonLenAgreesWithDecode pins CanonLen to DecodeCanon's grammar:
// wherever DecodeCanon succeeds, CanonLen reports exactly the bytes it
// consumed (so CanonLen never fails where DecodeCanon succeeds). Inputs
// are every canonical value followed by trailing bytes, every truncation
// of those, and the hostile cases.
func TestCanonLenAgreesWithDecode(t *testing.T) {
	var inputs [][]byte
	for _, v := range canonValues() {
		enc := v.AppendCanon(nil)
		for i := 0; i <= len(enc); i++ {
			inputs = append(inputs, enc[:i])
		}
		inputs = append(inputs, append(bytes.Clone(enc), canonBool, 1))
	}
	inputs = append(inputs, []byte{0x7F}, []byte{canonBool, 2}, []byte{canonUint, 7, 1},
		[]byte{canonMsg, 1, 'M', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	for _, data := range inputs {
		n, lerr := CanonLen(data)
		_, rest, derr := DecodeCanon(data)
		if derr == nil && (lerr != nil || n != len(data)-len(rest)) {
			t.Errorf("% x: CanonLen = %d, %v; DecodeCanon consumed %d", data, n, lerr, len(data)-len(rest))
		}
	}
	deep := Bool(true)
	for i := 0; i < canonMaxDepth+2; i++ {
		deep = Msg("M", map[string]Value{"f": deep})
	}
	if _, err := CanonLen(deep.AppendCanon(nil)); err == nil {
		t.Error("CanonLen: expected depth-limit error")
	}
}

func TestCanonDecodeDepthLimit(t *testing.T) {
	v := Bool(true)
	for i := 0; i < canonMaxDepth+2; i++ {
		v = Msg("M", map[string]Value{"f": v})
	}
	if _, _, err := DecodeCanon(v.AppendCanon(nil)); err == nil {
		t.Fatal("expected depth-limit error")
	}
}

func TestCanonDecodeHostileNoPanic(t *testing.T) {
	// Arbitrary byte soup must fail cleanly, never panic or over-read.
	inputs := [][]byte{
		{canonMsg, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{canonBytes, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		{canonMsg, 1, 'M', 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
	}
	for _, data := range inputs {
		if _, _, err := DecodeCanon(data); err == nil {
			t.Errorf("expected error for % x", data)
		}
	}
}
