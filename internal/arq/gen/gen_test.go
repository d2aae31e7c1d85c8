// Behavioural tests for the GENERATED ARQ package: the compile-time
// transition discipline, witness enforcement and codec validation. The
// transfers the stop-and-wait engines run on these types are tested
// against the interpreter in internal/arq.
package gen

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/genrt"
)

func TestGeneratedCodecRoundTrip(t *testing.T) {
	enc, err := EncodePacket(Packet{Seq: 42, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := DecodePacket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !checked.Valid() {
		t.Error("witness invalid")
	}
	p := checked.Value()
	if p.Seq != 42 || string(p.Payload) != "hello" {
		t.Errorf("decoded %+v", p)
	}
}

// TestGeneratedCodecMatchesInterpreter: the generated inline codec and
// the wire-layout interpreter produce byte-identical encodings.
func TestGeneratedCodecMatchesInterpreter(t *testing.T) {
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	layout := proto.Layouts["Packet"]
	f := func(seq uint8, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		genEnc, err := EncodePacket(Packet{Seq: seq, Payload: payload})
		if err != nil {
			return false
		}
		wireEnc, err := layout.Encode(map[string]expr.Value{
			"seq":     expr.U8(uint64(seq)),
			"payload": expr.Bytes(payload),
		})
		if err != nil {
			return false
		}
		if !bytes.Equal(genEnc, wireEnc) {
			return false
		}
		// And both decoders agree on validity of mutated packets.
		if len(genEnc) > 0 {
			mut := append([]byte(nil), genEnc...)
			mut[0] ^= 0x01
			_, genErr := DecodePacket(mut)
			_, wireErr := layout.Decode(mut)
			if (genErr == nil) != (wireErr == nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGeneratedCodecRejectsCorruption(t *testing.T) {
	enc, err := EncodePacket(Packet{Seq: 1, Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0x10
	if _, err := DecodePacket(enc); !errors.Is(err, genrt.ErrChecksumMismatch) {
		t.Errorf("err = %v, want checksum mismatch", err)
	}
	if _, err := DecodePacket(enc[:2]); !errors.Is(err, genrt.ErrShortBuffer) {
		t.Errorf("short err = %v", err)
	}
	good, _ := EncodePacket(Packet{Seq: 1, Payload: nil})
	if _, err := DecodePacket(append(good, 0xFF)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestGeneratedOversizePayloadRefused(t *testing.T) {
	if _, err := EncodePacket(Packet{Payload: make([]byte, 65536)}); !errors.Is(err, genrt.ErrFieldRange) {
		t.Errorf("err = %v, want field range", err)
	}
}

func TestGeneratedMachineHappyPath(t *testing.T) {
	ready := NewSender()
	if ready.Vars.Seq != 0 {
		t.Errorf("initial seq = %d", ready.Vars.Seq)
	}
	wait, pkt, err := ready.Send([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Seq != 0 || string(pkt.Payload) != "data" {
		t.Errorf("output packet %+v", pkt)
	}

	// Build the matching ack through the generated codec (the only way to
	// obtain a CheckedAck).
	ackBytes, err := EncodeAck(Ack{Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeAck(ackBytes)
	if err != nil {
		t.Fatal(err)
	}
	ready2, err := wait.Ack(ack)
	if err != nil {
		t.Fatal(err)
	}
	if ready2.Vars.Seq != 1 {
		t.Errorf("seq after ack = %d", ready2.Vars.Seq)
	}
	sent, err := ready2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sent.StateName() != "Sent" {
		t.Errorf("final state %s", sent.StateName())
	}

	// The compile-time guarantee (the paper's SendTrans discipline):
	// none of the following compile —
	//	ready.Timeout()      // TIMEOUT is not valid in Ready
	//	sent.Send(nil)       // Sent is final
	//	wait.Finish()        // cannot finish with data in flight
}

func TestGeneratedGuardRejectsWrongSeq(t *testing.T) {
	wait, _, err := NewSender().Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ackBytes, _ := EncodeAck(Ack{Seq: 9})
	wrongAck, err := DecodeAck(ackBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wait.Ack(wrongAck); !errors.Is(err, genrt.ErrGuardFailed) {
		t.Errorf("err = %v, want guard failure", err)
	}
	// The caller still holds `wait` unchanged and can retry: state values
	// are immutable, so rejection has no side effects.
	if wait.Vars.Seq != 0 {
		t.Error("state mutated by rejected transition")
	}
}

func TestGeneratedWitnessEnforcement(t *testing.T) {
	wait, _, err := NewSender().Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// A zero-value CheckedAck was never issued by DecodeAck: refused.
	if _, err := wait.Ack(CheckedAck{}); !errors.Is(err, genrt.ErrUnverified) {
		t.Errorf("err = %v, want unverified witness", err)
	}
}

func TestGeneratedSeqWraps(t *testing.T) {
	ready := NewSender()
	ready.Vars.Seq = 255
	wait, _, err := ready.Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ackBytes, _ := EncodeAck(Ack{Seq: 255})
	ack, _ := DecodeAck(ackBytes)
	next, err := wait.Ack(ack)
	if err != nil {
		t.Fatal(err)
	}
	if next.Vars.Seq != 0 {
		t.Errorf("seq after wrap = %d, want 0 (the paper's Byte arithmetic)", next.Vars.Seq)
	}
}

func TestGeneratedReceiver(t *testing.T) {
	recv := NewReceiver()
	pktBytes, _ := EncodePacket(Packet{Seq: 0, Payload: []byte("a")})
	pkt, err := DecodePacket(pktBytes)
	if err != nil {
		t.Fatal(err)
	}
	next, ackOut, err := recv.Accept(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if ackOut.Seq != 0 || next.Vars.Seq != 1 {
		t.Errorf("accept: ack=%d seq=%d", ackOut.Seq, next.Vars.Seq)
	}
	// The duplicate is rejected by Accept's guard but answered by Dupack.
	if _, _, err := next.Accept(pkt); !errors.Is(err, genrt.ErrGuardFailed) {
		t.Errorf("duplicate accept err = %v", err)
	}
	same, dupAck, err := next.Dupack(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if dupAck.Seq != 0 || same.Vars.Seq != 1 {
		t.Errorf("dupack: ack=%d seq=%d", dupAck.Seq, same.Vars.Seq)
	}
	closed, err := same.Close()
	if err != nil {
		t.Fatal(err)
	}
	if closed.StateName() != "Closed" {
		t.Errorf("close -> %s", closed.StateName())
	}
}
