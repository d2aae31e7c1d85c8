// Differential tests pinning the GENERATED artifacts to the compiled
// programs they were emitted from: the inline codec must agree with the
// slot-program interpreter byte for byte on encode and error class for
// error class on decode, and the flat table-dispatch machines must
// replay arbitrary event sequences in lockstep with the fsm interpreter
// — same outcomes, same states, same variables, same outputs. The
// generator consumes wire.Program/fsm.Program IR; these tests are the
// proof that the lowering preserved the programs' semantics.
package gen

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/genrt"
	"protodsl/internal/wire"
)

// compiledARQ compiles the canonical DSL source this package was
// generated from, so the differential baseline is exactly the codegen
// input.
func compiledARQ(t *testing.T) *dsl.Protocol {
	t.Helper()
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

func packetFrame(prog *wire.Program, seq uint8, payload []byte) *expr.Frame {
	f := prog.NewFrame()
	seqSlot, _ := prog.Slot("seq")
	paySlot, _ := prog.Slot("payload")
	f.Set(seqSlot, expr.U8(uint64(seq)))
	f.Set(paySlot, expr.BytesView(payload))
	return f
}

// TestGeneratedEncodeMatchesSlotProgram: generated AppendEncode and the
// slot interpreter produce byte-identical frames for arbitrary inputs.
func TestGeneratedEncodeMatchesSlotProgram(t *testing.T) {
	proto := compiledARQ(t)
	pktProg := proto.Layouts["Packet"].Program()
	ackProg := proto.Layouts["Ack"].Program()
	f := func(seq uint8, payload []byte) bool {
		if len(payload) > 4096 {
			payload = payload[:4096]
		}
		genEnc, genErr := AppendEncodePacket(nil, &Packet{Seq: seq, Payload: payload})
		slotEnc, slotErr := pktProg.AppendEncode(nil, packetFrame(pktProg, seq, payload))
		if (genErr == nil) != (slotErr == nil) || !bytes.Equal(genEnc, slotEnc) {
			return false
		}
		genAck, genErr := AppendEncodeAck(nil, &Ack{Seq: seq})
		af := ackProg.NewFrame()
		seqSlot, _ := ackProg.Slot("seq")
		af.Set(seqSlot, expr.U8(uint64(seq)))
		slotAck, slotErr := ackProg.AppendEncode(nil, af)
		return genErr == nil && slotErr == nil && bytes.Equal(genAck, slotAck)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// errClass names the wire sentinel an error matches. The generated
// codec's errors are genrt's, which are the wire package's sentinels, so
// both decoders must reject every input with the same one.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, wire.ErrShortBuffer):
		return "short"
	case errors.Is(err, wire.ErrTrailingBytes):
		return "trailing"
	case errors.Is(err, wire.ErrChecksumMismatch):
		return "checksum"
	case errors.Is(err, wire.ErrFieldMismatch):
		return "mismatch"
	default:
		return "other"
	}
}

// diffDecode feeds one buffer to both decoders and fails unless they
// agree on acceptance, error class and — when accepted — field values.
func diffDecode(t *testing.T, prog *wire.Program, data []byte) {
	t.Helper()
	var p Packet
	genErr := DecodePacketInto(&p, append([]byte(nil), data...))
	frame := prog.NewFrame()
	slotErr := prog.DecodeInto(frame, append([]byte(nil), data...))
	if gc, sc := errClass(genErr), errClass(slotErr); gc != sc {
		t.Fatalf("decode %x: generated %v (%s), slot %v (%s)", data, genErr, gc, slotErr, sc)
	}
	if genErr != nil {
		return
	}
	seqSlot, _ := prog.Slot("seq")
	paySlot, _ := prog.Slot("payload")
	if uint64(p.Seq) != frame.Get(seqSlot).AsUint() {
		t.Fatalf("decode %x: seq %d != slot %d", data, p.Seq, frame.Get(seqSlot).AsUint())
	}
	if !bytes.Equal(p.Payload, frame.Get(paySlot).AsBytes()) {
		t.Fatalf("decode %x: payload diverges", data)
	}
}

// TestGeneratedDecodeMatchesSlotProgram sweeps hostile mutations of
// valid frames — every truncation, every single-bit flip, trailing
// garbage, and random buffers — through both decoders.
func TestGeneratedDecodeMatchesSlotProgram(t *testing.T) {
	proto := compiledARQ(t)
	prog := proto.Layouts["Packet"].Program()
	seeds := [][]byte{}
	for _, payload := range [][]byte{nil, {0}, []byte("hello"), bytes.Repeat([]byte{0xAA}, 64)} {
		enc, err := EncodePacket(Packet{Seq: 7, Payload: payload})
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
		diffDecode(t, prog, append(append([]byte(nil), enc...), 0xFF))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		diffDecode(t, prog, buf)
	}
}

// TestDecodersAgreeOnEveryShortInput enumerates the short inputs
// instead of sampling them: every Ack of 0–2 bytes, every valid Ack
// followed by one trailing byte, and every (seq, chk) Packet header over
// payloads of 0–2 bytes with the length field one short of, equal to and
// one past the payload length. Both decoders must accept the same
// inputs, reject the rest with the same error class and agree on every
// decoded field, and a failed generated decode must leave its target
// untouched.
func TestDecodersAgreeOnEveryShortInput(t *testing.T) {
	proto := compiledARQ(t)
	pktProg, ackProg := proto.Layouts["Packet"].Program(), proto.Layouts["Ack"].Program()
	pktFrame, ackFrame := pktProg.NewFrame(), ackProg.NewFrame()
	pktSeq, _ := pktProg.Slot("seq")
	pktPayload, _ := pktProg.Slot("payload")
	ackSeq, _ := ackProg.Slot("seq")
	// Targets start from a value no decode of these inputs yields whole,
	// so an error path that writes a field shows.
	untouchedPkt := Packet{Seq: 0xA5, Payload: []byte("untouched")}
	var acceptedAcks, acceptedPkts int

	agree := func(what string, data []byte, genErr, slotErr error, fieldsAgree bool) {
		if gc, sc := errClass(genErr), errClass(slotErr); gc != sc {
			t.Fatalf("%s %x: generated %v (%s), slot %v (%s)", what, data, genErr, gc, slotErr, sc)
		}
		if !fieldsAgree {
			t.Fatalf("%s %x (%s): fields diverge", what, data, errClass(genErr))
		}
	}
	decodeAck := func(data []byte) {
		a := Ack{Seq: 0xA5}
		genErr := DecodeAckInto(&a, data)
		slotErr := ackProg.DecodeInto(ackFrame, data)
		if genErr != nil {
			agree("ack", data, genErr, slotErr, a.Seq == 0xA5)
			return
		}
		acceptedAcks++
		agree("ack", data, genErr, slotErr, uint64(a.Seq) == ackFrame.Get(ackSeq).AsUint())
	}
	decodePacket := func(data []byte) {
		p := untouchedPkt
		genErr := DecodePacketInto(&p, data)
		slotErr := pktProg.DecodeInto(pktFrame, data)
		if genErr != nil {
			agree("packet", data, genErr, slotErr,
				p.Seq == untouchedPkt.Seq && bytes.Equal(p.Payload, untouchedPkt.Payload))
			return
		}
		acceptedPkts++
		agree("packet", data, genErr, slotErr, uint64(p.Seq) == pktFrame.Get(pktSeq).AsUint() &&
			bytes.Equal(p.Payload, pktFrame.Get(pktPayload).RawBytes()))
	}

	buf := make([]byte, 0, 8)
	decodeAck(buf)
	for b0 := 0; b0 < 256; b0++ {
		decodeAck(append(buf[:0], byte(b0)))
		for b1 := 0; b1 < 256; b1++ {
			decodeAck(append(buf[:0], byte(b0), byte(b1)))
		}
	}
	for seq := 0; seq < 256; seq++ {
		valid, err := AppendEncodeAck(nil, &Ack{Seq: uint8(seq)})
		if err != nil {
			t.Fatal(err)
		}
		for extra := 0; extra < 256; extra++ {
			decodeAck(append(append(buf[:0], valid...), byte(extra)))
		}
	}
	if acceptedAcks != 256 {
		t.Errorf("accepted %d acks, want one per seq (256)", acceptedAcks)
	}

	for seq := 0; seq < 256; seq++ {
		for n := 0; n <= 2; n++ {
			for _, paylen := range []uint16{uint16(n - 1), uint16(n), uint16(n + 1)} {
				for chk := 0; chk < 256; chk++ {
					data := append(buf[:0], byte(seq), byte(chk), byte(paylen>>8), byte(paylen))
					for i := 0; i < n; i++ {
						data = append(data, byte(seq*31+i+1))
					}
					decodePacket(data)
				}
			}
		}
	}
	if acceptedPkts != 256*3 {
		t.Errorf("accepted %d packets, want one checksum per (seq, payload length) (768)", acceptedPkts)
	}
}

// machineByName pulls one compiled machine spec out of the protocol.
func machineByName(t *testing.T, proto *dsl.Protocol, name string) *fsm.Spec {
	t.Helper()
	for _, m := range proto.Machines {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("no machine %q", name)
	return nil
}

// stepNamed delivers the named event to the interpreter with positional
// arguments.
func stepNamed(m *fsm.Machine, event string, args ...expr.Value) (fsm.FrameResult, error) {
	ev, ok := m.EventID(event)
	if !ok {
		return fsm.FrameResult{}, fmt.Errorf("%w: %q", fsm.ErrUnknownEvent, event)
	}
	return m.StepEv(ev, args...)
}

// checkStep compares one delivery's result across the two execution
// models: interpreter FrameResult vs flat StepOutcome.
func checkStep(t *testing.T, step int, res fsm.FrameResult, ierr error, out genrt.StepOutcome, ferr error, names []string) {
	t.Helper()
	if (ierr == nil) != (ferr == nil) {
		t.Fatalf("step %d: interp err %v, flat err %v", step, ierr, ferr)
	}
	if ierr != nil {
		return
	}
	switch {
	case res.Ignored:
		if out != genrt.StepIgnored {
			t.Fatalf("step %d: interp ignored, flat %d", step, out)
		}
	case res.Rejected:
		if out != genrt.StepRejected {
			t.Fatalf("step %d: interp rejected, flat %d", step, out)
		}
	case res.Fired != nil:
		if !out.Fired() || names[out] != res.Fired.Name {
			t.Fatalf("step %d: interp fired %q, flat outcome %d", step, res.Fired.Name, out)
		}
	}
}

// TestFlatSenderMatchesInterpreter replays long random event sequences
// through the flat SenderMachine and the fsm interpreter in lockstep.
func TestFlatSenderMatchesInterpreter(t *testing.T) {
	proto := compiledARQ(t)
	interp, err := fsm.NewMachine(machineByName(t, proto, "Sender"))
	if err != nil {
		t.Fatal(err)
	}
	flat := NewSenderMachine()
	names := SenderTransitionNames[:]
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 5000; step++ {
		var res fsm.FrameResult
		var ierr, ferr error
		var out genrt.StepOutcome
		switch rng.Intn(6) {
		case 0:
			data := make([]byte, rng.Intn(8))
			rng.Read(data)
			res, ierr = stepNamed(interp, "SEND", expr.Bytes(data))
			out, ferr = flat.SEND(data)
		case 1:
			// Half the acks match the in-flight seq, half are stale.
			seq := flat.Vars.Seq
			if rng.Intn(2) == 0 {
				seq += uint8(1 + rng.Intn(3))
			}
			res, ierr = stepNamed(interp, "OK", expr.Msg("Ack", map[string]expr.Value{
				"seq": expr.U8(uint64(seq)), "chk": expr.U8(0),
			}))
			out, ferr = flat.OK(&Ack{Seq: seq})
		case 2:
			res, ierr = stepNamed(interp, "FAIL")
			out, ferr = flat.FAIL()
		case 3:
			res, ierr = stepNamed(interp, "TIMEOUT")
			out, ferr = flat.TIMEOUT()
		case 4:
			res, ierr = stepNamed(interp, "RETRY")
			out, ferr = flat.RETRY()
		case 5:
			res, ierr = stepNamed(interp, "FINISH")
			out, ferr = flat.FINISH()
		}
		checkStep(t, step, res, ierr, out, ferr, names)
		if ierr == nil && res.Fired != nil && len(res.Outputs) == 1 {
			o := res.Outputs[0]
			if o.Message != "Packet" {
				t.Fatalf("step %d: unexpected output %s", step, o.Message)
			}
			pkt := expr.FrameMsg(o.Shape, o.Frame)
			seq, _ := pkt.Field("seq")
			payload, _ := pkt.Field("payload")
			if seq.AsUint() != uint64(flat.OutPacket.Seq) || !bytes.Equal(payload.RawBytes(), flat.OutPacket.Payload) {
				t.Fatalf("step %d: output packet diverges", step)
			}
		}
		if interp.State() != flat.StateName() {
			t.Fatalf("step %d: interp in %s, flat in %s", step, interp.State(), flat.StateName())
		}
		seqVar, _ := interp.Var("seq")
		if seqVar.AsUint() != uint64(flat.Vars.Seq) {
			t.Fatalf("step %d: interp seq %d, flat seq %d", step, seqVar.AsUint(), flat.Vars.Seq)
		}
		if flat.InFinal() != interp.InFinal() {
			t.Fatalf("step %d: final flags diverge", step)
		}
		if flat.InFinal() {
			interp.Reset()
			flat.Reset()
		}
	}
}

// TestFlatReceiverMatchesInterpreter: same lockstep replay for the
// receiver's guarded accept/dupack pair.
func TestFlatReceiverMatchesInterpreter(t *testing.T) {
	proto := compiledARQ(t)
	interp, err := fsm.NewMachine(machineByName(t, proto, "Receiver"))
	if err != nil {
		t.Fatal(err)
	}
	flat := NewReceiverMachine()
	names := ReceiverTransitionNames[:]
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 5000; step++ {
		var res fsm.FrameResult
		var ierr, ferr error
		var out genrt.StepOutcome
		if rng.Intn(20) == 0 {
			res, ierr = stepNamed(interp, "CLOSE")
			out, ferr = flat.CLOSE()
		} else {
			seq := flat.Vars.Seq
			if rng.Intn(2) == 0 {
				seq -= uint8(1 + rng.Intn(2))
			}
			payload := make([]byte, rng.Intn(8))
			rng.Read(payload)
			res, ierr = stepNamed(interp, "RECV", expr.Msg("Packet", map[string]expr.Value{
				"seq": expr.U8(uint64(seq)), "chk": expr.U8(0),
				"paylen": expr.U16(uint64(len(payload))), "payload": expr.Bytes(payload),
			}))
			out, ferr = flat.RECV(&Packet{Seq: seq, Payload: payload})
		}
		checkStep(t, step, res, ierr, out, ferr, names)
		if interp.State() != flat.StateName() {
			t.Fatalf("step %d: interp in %s, flat in %s", step, interp.State(), flat.StateName())
		}
		seqVar, _ := interp.Var("seq")
		if seqVar.AsUint() != uint64(flat.Vars.Seq) {
			t.Fatalf("step %d: interp seq %d, flat seq %d", step, seqVar.AsUint(), flat.Vars.Seq)
		}
		if flat.InFinal() {
			interp.Reset()
			flat.Reset()
		}
	}
}
