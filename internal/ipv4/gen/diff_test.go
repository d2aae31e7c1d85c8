// Differential tests pinning the GENERATED IPv4 codec to the slot
// program it was emitted from: byte-identical encodes (sub-byte fields,
// the split 13-bit fragment offset, the inet16 checksum, the
// expression-sized options) and error-class-identical decodes under
// exhaustive mutation.
package gen

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/genrt"
	"protodsl/internal/wire"
)

func headerProgram(t *testing.T) *wire.Program {
	t.Helper()
	proto, _, err := dsl.Compile(specs.IPv4)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range proto.Layouts {
		return l.Program()
	}
	t.Fatal("no layouts")
	return nil
}

func headerFrame(prog *wire.Program, h *IPv4Header) *expr.Frame {
	f := prog.NewFrame()
	set := func(name string, v expr.Value) {
		slot, ok := prog.Slot(name)
		if ok {
			f.Set(slot, v)
		}
	}
	set("version", expr.Uint(uint64(h.Version), 4))
	set("ihl", expr.Uint(uint64(h.Ihl), 4))
	set("tos", expr.U8(uint64(h.Tos)))
	set("total_length", expr.U16(uint64(h.TotalLength)))
	set("identification", expr.U16(uint64(h.Identification)))
	set("flags", expr.Uint(uint64(h.Flags), 3))
	set("fragment_offset", expr.Uint(uint64(h.FragmentOffset), 13))
	set("ttl", expr.U8(uint64(h.Ttl)))
	set("protocol", expr.U8(uint64(h.Protocol)))
	set("source", expr.U32(uint64(h.Source)))
	set("destination", expr.U32(uint64(h.Destination)))
	set("options", expr.BytesView(h.Options))
	return f
}

// TestGeneratedEncodeMatchesSlotProgram: both paths produce identical
// bytes for arbitrary headers, including option-bearing IHL > 5 forms.
func TestGeneratedEncodeMatchesSlotProgram(t *testing.T) {
	prog := headerProgram(t)
	f := func(tos, ttl, proto, ihlExtra uint8, id, frag uint16, flags uint8, src, dst uint32, opts []byte) bool {
		ihl := 5 + ihlExtra%4
		h := IPv4Header{
			Version: 4, Ihl: ihl, Tos: tos, TotalLength: 20 + 4*uint16(ihl-5),
			Identification: id, Flags: flags & 0x7, FragmentOffset: frag & 0x1FFF,
			Ttl: ttl, Protocol: proto, Source: src, Destination: dst,
			Options: append([]byte(nil), make([]byte, 4*(ihl-5))...),
		}
		for i := range h.Options {
			if i < len(opts) {
				h.Options[i] = opts[i]
			}
		}
		genEnc, genErr := AppendEncodeIPv4Header(nil, &h)
		slotEnc, slotErr := prog.AppendEncode(nil, headerFrame(prog, &h))
		return genErr == nil && slotErr == nil && bytes.Equal(genEnc, slotEnc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, genrt.ErrShortBuffer) || errors.Is(err, wire.ErrShortBuffer):
		return "short"
	case errors.Is(err, genrt.ErrTrailingBytes) || errors.Is(err, wire.ErrTrailingBytes):
		return "trailing"
	case errors.Is(err, genrt.ErrChecksumMismatch) || errors.Is(err, wire.ErrChecksumMismatch):
		return "checksum"
	case errors.Is(err, genrt.ErrFieldMismatch) || errors.Is(err, wire.ErrFieldMismatch):
		return "mismatch"
	default:
		return "other"
	}
}

func diffDecode(t *testing.T, prog *wire.Program, data []byte) {
	t.Helper()
	var h IPv4Header
	genErr := DecodeIPv4HeaderInto(&h, append([]byte(nil), data...))
	frame := prog.NewFrame()
	slotErr := prog.DecodeInto(frame, append([]byte(nil), data...))
	if gc, sc := errClass(genErr), errClass(slotErr); gc != sc {
		t.Fatalf("decode %x: generated %v (%s), slot %v (%s)", data, genErr, gc, slotErr, sc)
	}
	if genErr != nil {
		return
	}
	// Spot-check the bit-packed fields against the slot frame, then pin
	// full equivalence by re-encoding both to identical bytes.
	for name, got := range map[string]uint64{
		"version":         uint64(h.Version),
		"ihl":             uint64(h.Ihl),
		"flags":           uint64(h.Flags),
		"fragment_offset": uint64(h.FragmentOffset),
		"total_length":    uint64(h.TotalLength),
	} {
		slot, ok := prog.Slot(name)
		if !ok {
			continue
		}
		if want := frame.Get(slot).AsUint(); got != want {
			t.Fatalf("decode %x: %s = %d, slot %d", data, name, got, want)
		}
	}
	reenc, err := AppendEncodeIPv4Header(nil, &h)
	if err != nil {
		t.Fatalf("re-encode %x: %v", data, err)
	}
	if !bytes.Equal(reenc, data) {
		t.Fatalf("re-encode %x != %x", reenc, data)
	}
}

// TestGeneratedDecodeMatchesSlotProgram sweeps truncations, bit flips,
// trailing bytes and random buffers through both decoders.
func TestGeneratedDecodeMatchesSlotProgram(t *testing.T) {
	prog := headerProgram(t)
	var seeds [][]byte
	for _, ihl := range []uint8{5, 6, 7} {
		h := IPv4Header{
			Version: 4, Ihl: ihl, TotalLength: 20 + 4*uint16(ihl-5),
			Identification: 0x1c46, Flags: 2, Ttl: 64, Protocol: 6,
			Source: 0xC0A80101, Destination: 0x0A000001,
			Options: bytes.Repeat([]byte{0x01}, int(4*(ihl-5))),
		}
		enc, err := EncodeIPv4Header(h)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, enc)
	}
	for _, enc := range seeds {
		diffDecode(t, prog, enc)
		for n := 0; n < len(enc); n++ {
			diffDecode(t, prog, enc[:n])
		}
		for i := 0; i < len(enc); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 1 << bit
				diffDecode(t, prog, mut)
			}
		}
		diffDecode(t, prog, append(append([]byte(nil), enc...), 0x00))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(48))
		rng.Read(buf)
		diffDecode(t, prog, buf)
	}
}
