package expr

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseAndString(t *testing.T) {
	tests := []struct {
		src  string
		want string // round-trip rendering; "" means same as src
	}{
		{src: "1 + 2"},
		{src: "seq + 1"},
		{src: "p.seq == seq"},
		{src: "a && b || c", want: "(a && b) || c"},
		{src: "a || b && c", want: "a || (b && c)"},
		{src: "1 + 2 * 3", want: "1 + (2 * 3)"},
		{src: "(1 + 2) * 3", want: "(1 + 2) * 3"},
		{src: "len(payload)"},
		{src: "sum8(seq, payload)"},
		{src: "!done"},
		{src: "x << 2"},
		{src: "0x10 + 0b101", want: "16 + 5"},
		{src: "1_000", want: "1000"},
		{src: "u8(300)"},
		{src: "min(a, b)"},
		{src: "p.hdr.flag", want: "p.hdr.flag"},
		{src: `"abc"`},
		{src: "true"},
		{src: "false"},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			e, err := Parse(tt.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", tt.src, err)
			}
			want := tt.want
			if want == "" {
				want = tt.src
			}
			if got := e.String(); got != want {
				t.Errorf("String() = %q, want %q", got, want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	tests := []string{
		"", "1 +", "(1", "foo(", "1 2", "@", "\"unterminated", "a.", "0x",
		"18446744073709551616", // 2^64: out of range
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) {
			if _, err := Parse(src); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", src)
			}
		})
	}
}

func testEnv() MapEnv {
	return MapEnv{
		Vars: map[string]Type{
			"seq":     TU8,
			"count":   TU32,
			"done":    TBool,
			"payload": TBytes,
			"name":    TString,
			"p":       TMsg("Packet"),
		},
		Fields: map[string]map[string]Type{
			"Packet": {"seq": TU8, "chk": TU8, "payload": TBytes},
		},
	}
}

func TestCheck(t *testing.T) {
	env := testEnv()
	tests := []struct {
		src  string
		want Type
	}{
		{"seq + 1", TU8},
		{"seq + 256", TU16}, // literal 256 is u16, promotes
		{"count * 2", TU32},
		{"seq == 255", TBool},
		{"seq < count", TBool}, // cross-width comparison allowed
		{"p.seq == seq", TBool},
		{"len(payload)", TU32},
		{"len(name)", TU32},
		{"sum8(seq, payload)", TU8},
		{"u16(seq)", TU16},
		{"done && seq == 0", TBool},
		{"!done", TBool},
		{"-seq", TU8},
		{"min(seq, count)", TU32},
		{"inet16(payload)", TU16},
		{"crc32(payload)", TU32},
		{"seq << 4", TU8},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			got, err := Check(MustParse(tt.src), env)
			if err != nil {
				t.Fatalf("Check(%q): %v", tt.src, err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Check(%q) = %s, want %s", tt.src, got, tt.want)
			}
		})
	}
}

func TestCheckErrors(t *testing.T) {
	env := testEnv()
	tests := []string{
		"unknown_var",
		"seq + done",
		"done + 1",
		"seq && done",
		"!seq",
		"-done",
		"p.nonexistent",
		"seq.field",   // field access on non-message
		"len(seq)",    // len of uint
		"len()",       // arity
		"nosuchfn(1)", // unknown function
		"payload == seq",
		"payload < payload", // ordering on bytes
		"u8(payload)",
		"sum8(done)",
		"inet16(seq)",
	}
	for _, src := range tests {
		t.Run(src, func(t *testing.T) {
			if _, err := Check(MustParse(src), env); err == nil {
				t.Errorf("Check(%q) succeeded, want error", src)
			}
			var terr *TypeError
			_, err := Check(MustParse(src), env)
			if err != nil && !errors.As(err, &terr) {
				t.Errorf("Check(%q) error is %T, want *TypeError", src, err)
			}
		})
	}
}

func evalScope() MapScope {
	return MapScope{
		"seq":     U8(255),
		"count":   U32(1000),
		"done":    Bool(false),
		"payload": Bytes([]byte{1, 2, 3}),
		"name":    Str("abc"),
		"p":       Msg("Packet", map[string]Value{"seq": U8(7), "chk": U8(9)}),
	}
}

func TestEval(t *testing.T) {
	scope := evalScope()
	tests := []struct {
		src  string
		want Value
	}{
		{"seq + 1", U8(0)},                // 8-bit wrap: the paper's Byte arithmetic
		{"seq + 256", U16(511)},           // promoted to u16: 255+256
		{"count - 1001", U32(0xFFFFFFFF)}, // 32-bit wrap
		{"seq == 255", Bool(true)},
		{"p.seq", U8(7)},
		{"p.seq + 1", U8(8)},
		{"len(payload)", U32(3)},
		{"sum8(payload)", U8(6)},
		{"sum8(seq, payload)", U8((255 + 6) % 256)},
		{"u16(seq) + 1", U16(256)},
		{"done || seq > 100", Bool(true)},
		{"done && 1/0 == 0", Bool(false)}, // short-circuit: no division
		{"min(seq, count)", U32(255)},
		{"max(seq, count)", U32(1000)},
		{"-seq", U8(1)}, // two's complement of 255 at width 8
		{"seq >> 4", U8(15)},
		{"seq & 0x0F", U8(15)},
		{"seq ^ 255", U8(0)},
		{"10 % 3", U8(1)},
		{"u8(300)", U8(44)},
		{`name == "abc"`, Bool(true)},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			got, err := Eval(MustParse(tt.src), scope)
			if err != nil {
				t.Fatalf("Eval(%q): %v", tt.src, err)
			}
			if !got.Equal(tt.want) {
				t.Errorf("Eval(%q) = %s, want %s", tt.src, got, tt.want)
			}
		})
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	for _, src := range []string{"1 / 0", "1 % 0", "seq / (seq - 255)"} {
		_, err := Eval(MustParse(src), evalScope())
		if !errors.Is(err, ErrDivisionByZero) {
			t.Errorf("Eval(%q) err = %v, want ErrDivisionByZero", src, err)
		}
	}
}

func TestEvalUndefinedVariable(t *testing.T) {
	_, err := Eval(MustParse("missing + 1"), MapScope{})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("want undefined-variable error, got %v", err)
	}
}

// Property: checked expressions never fail at evaluation except for
// division by zero — the "free theorem" the paper derives from
// typechecking (§3.1).
func TestCheckedExprsEvaluate(t *testing.T) {
	env := testEnv()
	scope := evalScope()
	exprs := []string{
		"seq + 1", "p.seq == seq", "len(payload) > 0", "sum8(seq, payload)",
		"done || !done", "min(seq, 3) + max(seq, 3)", "u16(seq) << 8",
	}
	for _, src := range exprs {
		e := MustParse(src)
		wantType, err := Check(e, env)
		if err != nil {
			t.Fatalf("Check(%q): %v", src, err)
		}
		v, err := Eval(e, scope)
		if err != nil {
			t.Fatalf("Eval(%q): %v (checked exprs must evaluate)", src, err)
		}
		if v.Kind() != wantType.Kind {
			t.Errorf("Eval(%q) kind %s, Check said %s", src, v.Kind(), wantType.Kind)
		}
	}
}

// Property-based: uint arithmetic wraps exactly like Go's fixed-width
// unsigned arithmetic.
func TestQuickAddWrapsLikeUint8(t *testing.T) {
	f := func(a, b uint8) bool {
		scope := MapScope{"x": U8(uint64(a)), "y": U8(uint64(b))}
		got, err := Eval(MustParse("x + y"), scope)
		return err == nil && got.AsUint() == uint64(a+b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property-based: sub/mul/xor wrap at width 16.
func TestQuickArithmeticWidth16(t *testing.T) {
	ops := map[string]func(a, b uint16) uint16{
		"x - y": func(a, b uint16) uint16 { return a - b },
		"x * y": func(a, b uint16) uint16 { return a * b },
		"x ^ y": func(a, b uint16) uint16 { return a ^ b },
		"x & y": func(a, b uint16) uint16 { return a & b },
		"x | y": func(a, b uint16) uint16 { return a | b },
	}
	for src, ref := range ops {
		e := MustParse(src)
		f := func(a, b uint16) bool {
			scope := MapScope{"x": U16(uint64(a)), "y": U16(uint64(b))}
			got, err := Eval(e, scope)
			return err == nil && got.AsUint() == uint64(ref(a, b))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

// Property-based: parsing is total and String() of a parsed expression
// reparses to an equal rendering (parse-print-parse fixpoint).
func TestQuickParsePrintFixpoint(t *testing.T) {
	srcs := []string{
		"a + b * c", "a && (b || c)", "len(x) == 3", "p.f1.f2 + 1",
		"sum8(a, b, c)", "!(a < b)", "x << 1 >> 1",
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		printed := e1.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q (printed %q): %v", src, printed, err)
		}
		if e2.String() != printed {
			t.Errorf("print-parse-print not stable: %q -> %q -> %q", src, printed, e2.String())
		}
	}
}

func TestInet16KnownVector(t *testing.T) {
	// RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d
	// (one's complement of 0xddf2).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Inet16(data); got != 0x220d {
		t.Errorf("Inet16 = %#x, want 0x220d", got)
	}
	// Odd-length input is padded with a zero byte.
	if got := Inet16([]byte{0xFF}); got != ^uint16(0xFF00) {
		t.Errorf("Inet16 odd = %#x, want %#x", got, ^uint16(0xFF00))
	}
}

func TestValueHashKeyInjective(t *testing.T) {
	vals := []Value{
		Bool(true), Bool(false),
		U8(0), U8(1), U16(1), // widths are part of the key: u8(1) and u16(1) wrap differently
		Bytes([]byte{1}), Bytes([]byte{1, 0}),
		Str("a"), Str("b"),
		Msg("M", map[string]Value{"a": U8(1)}),
		Msg("M", map[string]Value{"a": U8(2)}),
		Msg("N", map[string]Value{"a": U8(1)}),
	}
	seen := make(map[string]Value)
	for _, v := range vals {
		k := v.HashKey()
		if prev, dup := seen[k]; dup {
			t.Errorf("HashKey collision: %s vs %s (key %q)", prev, v, k)
			continue
		}
		seen[k] = v
	}
}

func TestValueCopySemantics(t *testing.T) {
	src := []byte{1, 2, 3}
	v := Bytes(src)
	src[0] = 99
	if v.RawBytes()[0] != 1 {
		t.Error("Bytes did not copy its input")
	}
	out := v.AsBytes()
	out[0] = 42
	if v.RawBytes()[0] != 1 {
		t.Error("AsBytes did not copy its output")
	}
}
