package wire_test

import (
	"bytes"
	"testing"

	"protodsl/examples/specs"
	argen "protodsl/internal/arq/gen"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
)

// FuzzProgramDecode throws arbitrary bytes at every decoder for the
// paper's ARQ packet layout — the map-based compatibility codec, the
// slot-compiled program, and the AOT-generated Go codec — and checks
// four properties:
//
//  1. No decoder panics, whatever the input.
//  2. All three agree on accept/reject (the fuzz twin of the
//     differential tests in internal/dsl and internal/arq/gen): the
//     generated code was emitted from the slot program's IR, so any
//     divergence is a codegen bug.
//  3. Accepted frames decode to identical field values on all paths.
//  4. Any accepted frame re-encodes to exactly the input bytes on both
//     the slot and generated encoders — the layout has no redundant
//     representations, so decode∘encode must be the identity.
//
// Seed corpus: testdata/fuzz/FuzzProgramDecode (hostile frames — short,
// truncated-length, bad-checksum, trailing-bytes, bit-flipped lengths).
func FuzzProgramDecode(f *testing.F) {
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		f.Fatal(err)
	}
	l := proto.Layouts["Packet"]
	prog := l.Program()

	// A valid frame, plus hostile mutations of it.
	valid, err := l.Encode(map[string]expr.Value{
		"seq":     expr.U8(7),
		"payload": expr.Bytes([]byte("hello")),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add(valid[:3])                     // truncated header
	f.Add(append(bytes.Clone(valid), 0)) // trailing byte
	bad := bytes.Clone(valid)
	bad[1] ^= 0xff // checksum mismatch
	f.Add(bad)
	short := bytes.Clone(valid)
	short[3] = 200 // length field promises more payload than present
	f.Add(short)
	f.Add([]byte{0, 0, 0, 0})       // zero frame: empty payload, checksum 0
	f.Add([]byte{0xff, 0xff, 0, 0}) // max seq, forged checksum
	wrapLen := bytes.Clone(valid)
	wrapLen[2] = 0xff // high length byte: 0xff05 payload promised
	f.Add(wrapLen)

	f.Fuzz(func(t *testing.T, data []byte) {
		frame := prog.NewFrame()
		// All decoders briefly zero/restore checksum bytes in place, so
		// each gets its own copy.
		progErr := prog.DecodeInto(frame, bytes.Clone(data))
		mapVals, mapErr := l.Decode(bytes.Clone(data))
		var gp argen.Packet
		genErr := argen.DecodePacketInto(&gp, bytes.Clone(data))

		if (progErr == nil) != (mapErr == nil) {
			t.Fatalf("decoders disagree on %x: program=%v map=%v", data, progErr, mapErr)
		}
		if (progErr == nil) != (genErr == nil) {
			t.Fatalf("decoders disagree on %x: program=%v generated=%v", data, progErr, genErr)
		}
		if progErr != nil {
			return
		}
		for _, name := range []string{"seq", "paylen"} {
			slot, _ := prog.Slot(name)
			if got, want := frame.Get(slot).AsUint(), mapVals[name].AsUint(); got != want {
				t.Fatalf("%s: program=%d map=%d", name, got, want)
			}
		}
		slot, _ := prog.Slot("payload")
		if got, want := frame.Get(slot).RawBytes(), mapVals["payload"].RawBytes(); !bytes.Equal(got, want) {
			t.Fatalf("payload: program=%x map=%x", got, want)
		}
		seqSlot, _ := prog.Slot("seq")
		if uint64(gp.Seq) != frame.Get(seqSlot).AsUint() || !bytes.Equal(gp.Payload, frame.Get(slot).RawBytes()) {
			t.Fatalf("generated decode diverges on %x: %+v", data, gp)
		}

		reenc, err := prog.AppendEncode(nil, frame)
		if err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(reenc, data) {
			t.Fatalf("decode/encode not identity: in=%x out=%x", data, reenc)
		}
		genEnc, err := argen.AppendEncodePacket(nil, &gp)
		if err != nil {
			t.Fatalf("generated re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(genEnc, data) {
			t.Fatalf("generated decode/encode not identity: in=%x out=%x", data, genEnc)
		}
	})
}
