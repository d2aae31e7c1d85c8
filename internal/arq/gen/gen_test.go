// Behavioural tests for the GENERATED ARQ package: the compile-time
// transition discipline, witness enforcement and codec validation, plus a
// full simulated transfer driven entirely through generated code and an
// equivalence check against the interpreter implementation.
package gen

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/expr"
	"protodsl/internal/genrt"
	"protodsl/internal/netsim"
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
	codec, err := arq.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	layout := codec.Packet
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

func TestGeneratedTransferOverLossyLink(t *testing.T) {
	payloads := make([][]byte, 25)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i + 1), byte(i + 2)}
	}
	cfg := arq.Config{
		Seed: 5,
		Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.2, DupProb: 0.05, CorruptProb: 0.05},
		RTO:  15 * time.Millisecond, MaxRetries: 50,
	}
	res, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("generated transfer failed")
	}
	if len(res.Delivered) != len(payloads) {
		t.Fatalf("delivered %d/%d", len(res.Delivered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}

// TestGeneratedEquivalentToInterpreter: generated code and the fsm
// interpreter produce identical protocol behaviour on identical seeds —
// outcome, final sender state, deliveries, packets sent and
// retransmissions — over duplicating and corrupting links.
func TestGeneratedEquivalentToInterpreter(t *testing.T) {
	oneByte := make([][]byte, 15)
	for i := range oneByte {
		oneByte[i] = []byte{byte(i)}
	}
	wide := make([][]byte, 15)
	for i := range wide {
		wide[i] = make([]byte, 24)
		for j := range wide[i] {
			wide[i][j] = byte(i + j)
		}
	}
	cases := []struct {
		seed     int64
		payloads [][]byte
		losses   []float64
		dup      float64
		corrupt  float64
		rto      time.Duration
	}{
		{seed: 11, payloads: oneByte, losses: []float64{0, 0.2, 0.4}, dup: 0.1, rto: 12 * time.Millisecond},
		{seed: 7, payloads: wide, losses: []float64{0, 0.15, 0.35}, dup: 0.05, corrupt: 0.05, rto: 15 * time.Millisecond},
	}
	for _, c := range cases {
		for _, loss := range c.losses {
			cfg := arq.Config{
				Seed: c.seed,
				Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: loss, DupProb: c.dup, CorruptProb: c.corrupt},
				RTO:  c.rto, MaxRetries: 40,
			}
			interp, err := arq.RunTransfer(cfg, c.payloads)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := RunTransfer(cfg, c.payloads)
			if err != nil {
				t.Fatal(err)
			}
			if interp.OK != gen.OK || interp.SenderState != gen.SenderState {
				t.Fatalf("seed=%d loss=%.2f: interp (%v,%s), generated (%v,%s)",
					c.seed, loss, interp.OK, interp.SenderState, gen.OK, gen.SenderState)
			}
			if len(interp.Delivered) != len(gen.Delivered) {
				t.Fatalf("seed=%d loss=%.2f: delivered %d vs %d", c.seed, loss, len(interp.Delivered), len(gen.Delivered))
			}
			for i := range interp.Delivered {
				if !bytes.Equal(interp.Delivered[i], gen.Delivered[i]) {
					t.Fatalf("seed=%d loss=%.2f: delivery %d differs", c.seed, loss, i)
				}
			}
			if interp.Sender.PacketsSent != gen.Sender.PacketsSent || interp.Sender.Retransmits != gen.Sender.Retransmits {
				t.Errorf("seed=%d loss=%.2f: packets sent/retransmits %d/%d vs %d/%d", c.seed, loss,
					interp.Sender.PacketsSent, interp.Sender.Retransmits, gen.Sender.PacketsSent, gen.Sender.Retransmits)
			}
			t.Logf("seed=%d loss=%.2f: %s, %d packets, %d retransmits",
				c.seed, loss, gen.SenderState, gen.Sender.PacketsSent, gen.Sender.Retransmits)
		}
	}
}
