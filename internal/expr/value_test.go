package expr

import (
	"encoding/hex"
	"reflect"
	"testing"
	"unsafe"
)

// TestValueLayout pins the size of a Value: compiled closures, frames and
// the model checker copy it by value on every operand, so growing it
// costs every guard and every explored state. It also pins that Value is
// not comparable — with pointer fields, == would compile and compare
// payloads by identity instead of by content.
func TestValueLayout(t *testing.T) {
	if size := unsafe.Sizeof(Value{}); size > 32 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want <= 32", size)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Error("Value is comparable; == would compare payloads by identity")
	}
}

// TestValueRepresentationEdgeCases pins the observable behaviour of the
// representation's corner cases against output recorded from the
// previous (one field per payload) layout: empty and nil byte slices, a
// sub-slice view, the empty string, and one message built both by
// FrameMsg over a wire-order shape and by Msg from a field map.
func TestValueRepresentationEdgeCases(t *testing.T) {
	buf := []byte{9, 1, 2, 3, 4, 9}
	shape := NewMsgShape("Pkt", []string{"seq", "payload", "tag"})
	fr := NewFrame(shape.NumFields())
	fr.Set(0, U8(7))
	fr.Set(1, BytesView(buf[1:4]))
	fr.Set(2, Str("hi"))
	const msgCanon = "0503506b7403077061796c6f61640303010203037365710208070374616704026869"
	const msgHash = "mPkt|payload=y\x01\x02\x03|seq=u7w8|tag=shi"
	const msgString = `Pkt{payload: 0x010203, seq: 7:u8, tag: "hi"}`
	cases := []struct {
		name          string
		v             Value
		canon, hash   string
		str           string
		equalToo      Value // a value of the other construction that must be Equal
		equalTooLabel string
	}{
		{"Bytes(nil)", Bytes(nil), "0300", "y", "0x", Bytes([]byte{}), "Bytes([]byte{})"},
		{"Bytes([]byte{})", Bytes([]byte{}), "0300", "y", "0x", BytesView(nil), "BytesView(nil)"},
		{"BytesView(sub-slice)", BytesView(buf[1:4]), "0303010203", "y\x01\x02\x03", "0x010203", Bytes([]byte{1, 2, 3}), "Bytes(copy)"},
		{`Str("")`, Str(""), "0400", "s", `""`, Str(string([]byte{})), "Str(empty conversion)"},
		{"FrameMsg", FrameMsg(shape, fr), msgCanon, msgHash, msgString,
			Msg("Pkt", map[string]Value{"seq": U8(7), "payload": Bytes([]byte{1, 2, 3}), "tag": Str("hi")}), "Msg"},
		{"Msg", Msg("Pkt", map[string]Value{"seq": U8(7), "payload": Bytes([]byte{1, 2, 3}), "tag": Str("hi")}), msgCanon, msgHash, msgString,
			FrameMsg(shape, fr), "FrameMsg"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(tc.v.AppendCanon(nil)); got != tc.canon {
			t.Errorf("%s: AppendCanon = %s, want %s", tc.name, got, tc.canon)
		}
		if got := tc.v.HashKey(); got != tc.hash {
			t.Errorf("%s: HashKey = %q, want %q", tc.name, got, tc.hash)
		}
		if got := tc.v.String(); got != tc.str {
			t.Errorf("%s: String = %q, want %q", tc.name, got, tc.str)
		}
		if !tc.v.Equal(tc.v) || !tc.v.Equal(tc.equalToo) || !tc.equalToo.Equal(tc.v) {
			t.Errorf("%s: not Equal to itself and to %s", tc.name, tc.equalTooLabel)
		}
		if raw := tc.v.RawBytes(); cap(raw) != len(raw) {
			t.Errorf("%s: cap(RawBytes()) = %d, len %d", tc.name, cap(raw), len(raw))
		}
	}

	// An append to a view's bytes must copy, never write into the spare
	// capacity of the buffer the view aliases.
	view := BytesView(buf[1:4])
	_ = append(view.RawBytes(), 0xEE)
	if buf[4] != 4 {
		t.Errorf("append to BytesView(buf[1:4]).RawBytes() wrote buf[4] = %#x", buf[4])
	}
	if Str("").Equal(Bytes(nil)) || Bytes(nil).Equal(Str("")) {
		t.Error("empty string and empty bytes are Equal")
	}
}

var sinkValue Value

// TestValueZeroAllocs pins the allocation-free paths: the view
// constructors, a compiled guard chain over a slot-backed message, and
// AppendCanon into a buffer that already has room.
func TestValueZeroAllocs(t *testing.T) {
	shape := NewMsgShape("Pkt", []string{"seq", "chk", "payload", "tag", "last"})
	payload := []byte{1, 2, 3, 4}
	tag := "tag"
	fr := NewFrame(shape.NumFields())
	fr.Set(0, U8(5))
	fr.Set(1, U16(0xBEEF))
	fr.Set(2, BytesView(payload))
	fr.Set(3, Str(tag))
	fr.Set(4, Bool(true))

	if n := testing.AllocsPerRun(100, func() {
		sinkValue = BytesView(payload[1:])
		sinkValue = Str(tag)
		sinkValue = FrameMsg(shape, fr)
	}); n != 0 {
		t.Errorf("BytesView/Str/FrameMsg: %v allocs/op, want 0", n)
	}

	layout := NewScopeLayout()
	pSlot, seqSlot := layout.Add("p"), layout.Add("seq")
	layout.SetShape("p", shape)
	f := layout.NewFrame()
	f.Set(pSlot, FrameMsg(shape, fr))
	f.Set(seqSlot, U8(5))
	guard := CompileBool(MustParse("p.seq == seq && p.chk != 0"), layout)
	if ok, err := guard(f); !ok || err != nil {
		t.Fatalf("guard = %v, %v; want true", ok, err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if ok, err := guard(f); !ok || err != nil {
			t.Fatal("guard failed")
		}
	}); n != 0 {
		t.Errorf("compiled guard over a FrameMsg: %v allocs/op, want 0", n)
	}

	msg := FrameMsg(shape, fr)
	dst := make([]byte, 0, 128)
	dst = msg.AppendCanon(dst)
	want := string(dst)
	if n := testing.AllocsPerRun(100, func() {
		dst = msg.AppendCanon(dst[:0])
	}); n != 0 {
		t.Errorf("AppendCanon with room: %v allocs/op, want 0", n)
	}
	if string(dst) != want {
		t.Error("AppendCanon output changed between runs")
	}
}
