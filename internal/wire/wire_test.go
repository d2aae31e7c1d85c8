package wire

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"protodsl/internal/expr"
)

// arqPacket is the paper's §3.4 packet: sequence number, checksum over
// (seq, payload), and the payload with a 16-bit length prefix.
func arqPacket(t testing.TB) *Layout {
	t.Helper()
	m := &Message{
		Name: "Packet",
		Fields: []Field{
			{Name: "seq", Kind: FieldUint, Bits: 8},
			{Name: "chk", Kind: FieldUint, Bits: 8,
				Compute: &Compute{Kind: ComputeChecksum, Algo: ChecksumSum8}},
			{Name: "paylen", Kind: FieldUint, Bits: 16},
			{Name: "payload", Kind: FieldBytes, LenKind: LenField, LenField: "paylen"},
		},
	}
	l, err := Compile(m)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return l
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := arqPacket(t)
	payloads := [][]byte{nil, {}, {0}, {1, 2, 3}, make([]byte, 1000)}
	for _, p := range payloads {
		enc, err := l.Encode(map[string]expr.Value{
			"seq":     expr.U8(42),
			"payload": expr.Bytes(p),
		})
		if err != nil {
			t.Fatalf("Encode(len=%d): %v", len(p), err)
		}
		if want := 4 + len(p); len(enc) != want {
			t.Fatalf("encoded length = %d, want %d", len(enc), want)
		}
		dec, err := l.Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got := dec["seq"].AsUint(); got != 42 {
			t.Errorf("seq = %d, want 42", got)
		}
		if got := dec["payload"].RawBytes(); string(got) != string(p) {
			t.Errorf("payload mismatch")
		}
		if got := dec["paylen"].AsUint(); got != uint64(len(p)) {
			t.Errorf("paylen = %d, want %d", got, len(p))
		}
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	l := arqPacket(t)
	enc, err := l.Encode(map[string]expr.Value{
		"seq":     expr.U8(7),
		"payload": expr.Bytes([]byte("hello")),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: the sum8 checksum must catch it.
	enc[5] ^= 0x01
	_, err = l.Decode(enc)
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("Decode(corrupted) err = %v, want ErrChecksumMismatch", err)
	}
	// Restore and corrupt the checksum byte itself.
	enc[5] ^= 0x01
	enc[1] ^= 0xFF
	_, err = l.Decode(enc)
	if !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("Decode(bad checksum) err = %v, want ErrChecksumMismatch", err)
	}
}

func TestDecodeShortAndTrailing(t *testing.T) {
	l := arqPacket(t)
	enc, _ := l.Encode(map[string]expr.Value{
		"seq": expr.U8(1), "payload": expr.Bytes([]byte{9, 9}),
	})
	if _, err := l.Decode(enc[:3]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("short decode err = %v, want ErrShortBuffer", err)
	}
	// Truncating into the payload also shortens it; the paylen field then
	// overruns the buffer.
	if _, err := l.Decode(enc[:5]); !errors.Is(err, ErrShortBuffer) {
		t.Errorf("truncated payload err = %v, want ErrShortBuffer", err)
	}
	if _, err := l.Decode(append(append([]byte{}, enc...), 0xAA)); !errors.Is(err, ErrTrailingBytes) {
		t.Errorf("trailing decode err = %v, want ErrTrailingBytes", err)
	}
}

func TestEncodeMissingAndBadFields(t *testing.T) {
	l := arqPacket(t)
	if _, err := l.Encode(map[string]expr.Value{"seq": expr.U8(1)}); !errors.Is(err, ErrMissingField) {
		t.Errorf("missing payload err = %v, want ErrMissingField", err)
	}
	if _, err := l.Encode(map[string]expr.Value{
		"seq": expr.Bytes([]byte{1}), "payload": expr.Bytes(nil),
	}); !errors.Is(err, ErrBadFieldValue) {
		t.Errorf("wrong kind err = %v, want ErrBadFieldValue", err)
	}
	// Supplying an inconsistent length is rejected — callers cannot build
	// self-inconsistent packets.
	if _, err := l.Encode(map[string]expr.Value{
		"seq": expr.U8(1), "paylen": expr.U16(99), "payload": expr.Bytes([]byte{1, 2}),
	}); !errors.Is(err, ErrBadFieldValue) {
		t.Errorf("inconsistent length err = %v, want ErrBadFieldValue", err)
	}
	// Supplying the *consistent* length is fine.
	if _, err := l.Encode(map[string]expr.Value{
		"seq": expr.U8(1), "paylen": expr.U16(2), "payload": expr.Bytes([]byte{1, 2}),
	}); err != nil {
		t.Errorf("consistent length err = %v, want nil", err)
	}
}

func TestUintFieldRange(t *testing.T) {
	m := &Message{Name: "M", Fields: []Field{
		{Name: "a", Kind: FieldUint, Bits: 4},
		{Name: "b", Kind: FieldUint, Bits: 4},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Encode(map[string]expr.Value{"a": expr.U8(16), "b": expr.U8(0)}); !errors.Is(err, ErrBadFieldValue) {
		t.Errorf("overflow err = %v, want ErrBadFieldValue", err)
	}
	enc, err := l.Encode(map[string]expr.Value{"a": expr.U8(0xA), "b": expr.U8(0x5)})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 1 || enc[0] != 0xA5 {
		t.Errorf("bit packing = %#x, want [0xA5]", enc)
	}
}

func TestBitfieldsNetworkOrder(t *testing.T) {
	// Version=4, IHL=5 must encode as 0x45 — the classic IPv4 first byte.
	m := &Message{Name: "H", Fields: []Field{
		{Name: "version", Kind: FieldUint, Bits: 4},
		{Name: "ihl", Kind: FieldUint, Bits: 4},
		{Name: "rest", Kind: FieldUint, Bits: 24},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := l.Encode(map[string]expr.Value{
		"version": expr.U8(4), "ihl": expr.U8(5), "rest": expr.U32(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != 0x45 {
		t.Errorf("first byte = %#x, want 0x45", enc[0])
	}
}

func TestComputeExprLengthField(t *testing.T) {
	// A message whose length field is expression-computed.
	m := &Message{Name: "M", Fields: []Field{
		{Name: "n", Kind: FieldUint, Bits: 8,
			Compute: &Compute{Kind: ComputeExpr, Expr: expr.MustParse("len(body)")}},
		{Name: "body", Kind: FieldBytes, LenKind: LenField, LenField: "n"},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := l.Encode(map[string]expr.Value{"body": expr.Bytes([]byte("xyz"))})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec["n"].AsUint() != 3 {
		t.Errorf("n = %d, want 3", dec["n"].AsUint())
	}
	// Tamper with the length so the recomputation fails. Growing the
	// length makes the payload read overrun instead, so shrink it and pad
	// trailing bytes to keep total length plausible — the decode must
	// fail either way; with n=2 the final byte becomes trailing garbage.
	enc[0] = 2
	if _, err := l.Decode(enc); err == nil {
		t.Error("Decode(tampered length) succeeded, want error")
	}
}

func TestLenExprField(t *testing.T) {
	// options length = (ihl - 5) * 4, as in IPv4.
	m := &Message{Name: "M", Fields: []Field{
		{Name: "ihl", Kind: FieldUint, Bits: 8},
		{Name: "options", Kind: FieldBytes, LenKind: LenExpr,
			LenExpr: expr.MustParse("(ihl - 5) * 4")},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := l.Encode(map[string]expr.Value{
		"ihl": expr.U8(6), "options": expr.Bytes([]byte{1, 2, 3, 4}),
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec["options"].RawBytes(); len(got) != 4 {
		t.Errorf("options len = %d, want 4", len(got))
	}
	// Mismatched supplied length vs expression.
	if _, err := l.Encode(map[string]expr.Value{
		"ihl": expr.U8(6), "options": expr.Bytes([]byte{1}),
	}); !errors.Is(err, ErrBadFieldValue) {
		t.Errorf("len-expr mismatch err = %v, want ErrBadFieldValue", err)
	}
}

func TestLenRest(t *testing.T) {
	m := &Message{Name: "M", Fields: []Field{
		{Name: "tag", Kind: FieldUint, Bits: 8},
		{Name: "body", Kind: FieldBytes, LenKind: LenRest},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := l.Encode(map[string]expr.Value{
		"tag": expr.U8(9), "body": expr.Bytes([]byte("rest of message")),
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := l.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec["body"].RawBytes()) != "rest of message" {
		t.Error("LenRest round-trip mismatch")
	}
}

func TestCompileRejections(t *testing.T) {
	tests := []struct {
		name string
		m    *Message
	}{
		{"empty message", &Message{Name: "M"}},
		{"no name", &Message{Fields: []Field{{Name: "a", Kind: FieldUint, Bits: 8}}}},
		{"dup field", &Message{Name: "M", Fields: []Field{
			{Name: "a", Kind: FieldUint, Bits: 8}, {Name: "a", Kind: FieldUint, Bits: 8}}}},
		{"zero width", &Message{Name: "M", Fields: []Field{{Name: "a", Kind: FieldUint, Bits: 0}}}},
		{"width 65", &Message{Name: "M", Fields: []Field{{Name: "a", Kind: FieldUint, Bits: 65}}}},
		{"unaligned total", &Message{Name: "M", Fields: []Field{{Name: "a", Kind: FieldUint, Bits: 3}}}},
		{"unaligned bytes", &Message{Name: "M", Fields: []Field{
			{Name: "a", Kind: FieldUint, Bits: 4},
			{Name: "b", Kind: FieldBytes, LenKind: LenRest}}}},
		{"len field missing", &Message{Name: "M", Fields: []Field{
			{Name: "b", Kind: FieldBytes, LenKind: LenField, LenField: "nope"}}}},
		{"len field after", &Message{Name: "M", Fields: []Field{
			{Name: "b", Kind: FieldBytes, LenKind: LenField, LenField: "n"},
			{Name: "n", Kind: FieldUint, Bits: 8}}}},
		{"rest not last", &Message{Name: "M", Fields: []Field{
			{Name: "b", Kind: FieldBytes, LenKind: LenRest},
			{Name: "a", Kind: FieldUint, Bits: 8}}}},
		{"computed bytes", &Message{Name: "M", Fields: []Field{
			{Name: "b", Kind: FieldBytes, LenKind: LenRest,
				Compute: &Compute{Kind: ComputeExpr, Expr: expr.MustParse("1")}}}}},
		{"checksum width mismatch", &Message{Name: "M", Fields: []Field{
			{Name: "c", Kind: FieldUint, Bits: 16,
				Compute: &Compute{Kind: ComputeChecksum, Algo: ChecksumSum8}}}}},
		{"checksum after variable", &Message{Name: "M", Fields: []Field{
			{Name: "b", Kind: FieldBytes, LenKind: LenRest}, // variable, but then nothing can follow LenRest anyway
			{Name: "c", Kind: FieldUint, Bits: 8,
				Compute: &Compute{Kind: ComputeChecksum, Algo: ChecksumSum8}}}}},
		{"bad length expr type", &Message{Name: "M", Fields: []Field{
			{Name: "f", Kind: FieldUint, Bits: 8},
			{Name: "b", Kind: FieldBytes, LenKind: LenExpr, LenExpr: expr.MustParse("f == 0")}}}},
		{"length expr uses later field", &Message{Name: "M", Fields: []Field{
			{Name: "b", Kind: FieldBytes, LenKind: LenExpr, LenExpr: expr.MustParse("f")},
			{Name: "f", Kind: FieldUint, Bits: 8}}}},
		{"computed refs computed", &Message{Name: "M", Fields: []Field{
			{Name: "a", Kind: FieldUint, Bits: 8,
				Compute: &Compute{Kind: ComputeExpr, Expr: expr.MustParse("1")}},
			{Name: "b", Kind: FieldUint, Bits: 8,
				Compute: &Compute{Kind: ComputeExpr, Expr: expr.MustParse("a")}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Compile(tt.m); err == nil {
				t.Errorf("Compile succeeded, want error")
			} else {
				var derr *DefinitionError
				if !errors.As(err, &derr) {
					t.Errorf("error is %T, want *DefinitionError", err)
				}
			}
		})
	}
}

func TestFixedSizeAndOffsets(t *testing.T) {
	l := arqPacket(t)
	if _, ok := l.FixedSize(); ok {
		t.Error("variable message reported fixed size")
	}
	off, ok := l.FieldOffset("chk")
	if !ok || off != 8 {
		t.Errorf("chk offset = %d,%v want 8,true", off, ok)
	}
	if _, ok := l.FieldOffset("nonexistent"); ok {
		t.Error("offset of nonexistent field reported ok")
	}

	fixed := &Message{Name: "F", Fields: []Field{
		{Name: "a", Kind: FieldUint, Bits: 16},
		{Name: "b", Kind: FieldUint, Bits: 16},
	}}
	lf, err := Compile(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if size, ok := lf.FixedSize(); !ok || size != 4 {
		t.Errorf("FixedSize = %d,%v want 4,true", size, ok)
	}
}

func TestInet16ChecksumField(t *testing.T) {
	m := &Message{Name: "M", Fields: []Field{
		{Name: "a", Kind: FieldUint, Bits: 16},
		{Name: "sum", Kind: FieldUint, Bits: 16,
			Compute: &Compute{Kind: ComputeChecksum, Algo: ChecksumInet16}},
		{Name: "b", Kind: FieldUint, Bits: 32},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := l.Encode(map[string]expr.Value{"a": expr.U16(0x1234), "b": expr.U32(0xDEADBEEF)})
	if err != nil {
		t.Fatal(err)
	}
	// Verifying property of the Internet checksum: summing the whole
	// message including the checksum yields 0xFFFF before complement.
	if _, err := l.Decode(enc); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	enc[7] ^= 0x40
	if _, err := l.Decode(enc); !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("corrupted inet16 err = %v, want ErrChecksumMismatch", err)
	}
}

func TestCRC32ChecksumField(t *testing.T) {
	m := &Message{Name: "M", Fields: []Field{
		{Name: "crc", Kind: FieldUint, Bits: 32,
			Compute: &Compute{Kind: ComputeChecksum, Algo: ChecksumCRC32}},
		{Name: "body", Kind: FieldBytes, LenKind: LenRest},
	}}
	l, err := Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := l.Encode(map[string]expr.Value{"body": expr.Bytes([]byte("payload"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Decode(enc); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	enc[len(enc)-1] ^= 1
	if _, err := l.Decode(enc); !errors.Is(err, ErrChecksumMismatch) {
		t.Errorf("corrupted crc err = %v, want ErrChecksumMismatch", err)
	}
}

// Property-based: for random seq/payload, encode∘decode is the identity
// and every single-bit flip anywhere in the message is detected by either
// the checksum, the length discipline, or the trailing-bytes check.
func TestQuickRoundTripAndBitFlipDetection(t *testing.T) {
	l := arqPacket(t)
	f := func(seq uint8, payload []byte) bool {
		if len(payload) > 512 {
			payload = payload[:512]
		}
		enc, err := l.Encode(map[string]expr.Value{
			"seq": expr.U8(uint64(seq)), "payload": expr.Bytes(payload),
		})
		if err != nil {
			return false
		}
		dec, err := l.Decode(enc)
		if err != nil {
			return false
		}
		return dec["seq"].AsUint() == uint64(seq) &&
			string(dec["payload"].RawBytes()) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}

	// Exhaustive single-bit-flip detection on one representative packet.
	enc, err := l.Encode(map[string]expr.Value{
		"seq": expr.U8(3), "payload": expr.Bytes([]byte("abcdef")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(enc); bit++ {
		mut := make([]byte, len(enc))
		copy(mut, enc)
		mut[bit/8] ^= 1 << uint(7-bit%8)
		if _, err := l.Decode(mut); err == nil {
			t.Errorf("bit flip at %d went undetected", bit)
		}
	}
}

func TestDiagramARQ(t *testing.T) {
	l := arqPacket(t)
	d := Diagram(l.Message())
	for _, want := range []string{"seq", "chk (sum8)", "paylen", "payload (paylen bytes)"} {
		if !strings.Contains(d, want) {
			t.Errorf("diagram missing %q:\n%s", want, d)
		}
	}
	// Every content row must be exactly as wide as the ruler.
	lines := strings.Split(strings.TrimRight(d, "\n"), "\n")
	ruler := "+" + strings.Repeat("-+", 32)
	for _, line := range lines[2:] {
		if len(line) != len(ruler) {
			t.Errorf("row width %d != ruler width %d: %q", len(line), len(ruler), line)
		}
	}
}

// TestAutoLengthBound pins the length field's range: a payload longer
// than its 16-bit length field can count is refused by both encoders,
// not written with a truncated length; the longest that fits encodes.
func TestAutoLengthBound(t *testing.T) {
	l := arqPacket(t)
	prog := l.Program()
	seq, _ := prog.Slot("seq")
	payload, _ := prog.Slot("payload")
	for _, n := range []int{1<<16 - 1, 1 << 16} {
		body := make([]byte, n)
		_, lerr := l.Encode(map[string]expr.Value{"seq": expr.U8(1), "payload": expr.Bytes(body)})
		f := prog.NewFrame()
		f.Set(seq, expr.U8(1))
		f.Set(payload, expr.Bytes(body))
		_, perr := prog.AppendEncode(nil, f)
		for name, err := range map[string]error{"Layout.Encode": lerr, "Program.AppendEncode": perr} {
			if fits := n < 1<<16; fits && err != nil {
				t.Errorf("%s: %d-byte payload: %v", name, n, err)
			} else if !fits && !errors.Is(err, ErrBadFieldValue) {
				t.Errorf("%s: %d-byte payload: err = %v, want ErrBadFieldValue", name, n, err)
			}
		}
	}
}
