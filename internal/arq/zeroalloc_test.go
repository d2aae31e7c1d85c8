package arq

import (
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// TestCodecZeroAllocs pins arq.Codec's allocation contract, under
// -race too: steady-state packet/ack encode and in-place decode through
// the generated codec it runs allocate nothing.
func TestCodecZeroAllocs(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	enc, err := c.AppendEncodePacket(nil, 1, payload)
	if err != nil {
		t.Fatal(err)
	}
	pkt := append([]byte(nil), enc...)
	ackEnc, err := c.AppendEncodeAck(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ack := append([]byte(nil), ackEnc...)

	buf := enc[:0]
	if n := testing.AllocsPerRun(200, func() {
		out, err := c.AppendEncodePacket(buf[:0], 3, payload)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}); n != 0 {
		t.Fatalf("AppendEncodePacket allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.DecodePacketInPlace(pkt); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodePacketInPlace allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := c.DecodeAckInPlace(ack); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("DecodeAckInPlace allocates %.1f/op", n)
	}
}

// TestMachinePacketLoopZeroAllocs drives the interpreter's per-packet
// path — ack decode into a slot frame, FrameMsg wrap, StepEv with the
// `ack.seq == seq` guard, output frame encode — and asserts zero
// allocations: the loop the model checker and the session layer step
// machines through, and the stop-and-wait reference of
// reference_test.go.
func TestMachinePacketLoopZeroAllocs(t *testing.T) {
	machine, err := fsm.NewMachine(SenderSpec())
	if err != nil {
		t.Fatal(err)
	}
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	ackShape := machine.Program().MsgShape("Ack")
	ackFrame := codec.AckProgram().NewFrame()
	evSend, _ := machine.EventID(EvSend)
	evOK, _ := machine.EventID(EvOK)
	payload := make([]byte, 64)
	var encBuf, ackBuf []byte
	seq := uint8(0)

	// Warm the buffers once.
	a, err := codec.AppendEncodeAck(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ackBuf = append([]byte(nil), a...)

	if n := testing.AllocsPerRun(200, func() {
		res, err := machine.StepEv(evSend, expr.BytesView(payload))
		if err != nil {
			t.Fatal(err)
		}
		enc, err := codec.PacketProgram().AppendEncode(encBuf[:0], res.Outputs[0].Frame)
		if err != nil {
			t.Fatal(err)
		}
		encBuf = enc[:0]
		// The peer acks the in-flight seq; decode it and step OK.
		a, err := codec.AppendEncodeAck(ackBuf[:0], seq)
		if err != nil {
			t.Fatal(err)
		}
		ackBuf = a[:0]
		if err := codec.AckProgram().DecodeInto(ackFrame, a); err != nil {
			t.Fatal(err)
		}
		okRes, err := machine.StepEv(evOK, expr.FrameMsg(ackShape, ackFrame))
		if err != nil {
			t.Fatal(err)
		}
		if okRes.Fired == nil {
			t.Fatal("ack did not fire")
		}
		seq++
	}); n != 0 {
		t.Fatalf("send/ack machine loop allocates %.1f/op", n)
	}
}
