package arq

import (
	"testing"

	"protodsl/internal/arq/gen"
)

// TestStopAndWaitLoopZeroAllocs pins the generated loop as Sender and
// Receiver run it at zero allocations: the receiver decodes a packet,
// steps RECV and encodes the staged ack; the sender decodes that ack,
// steps OK, steps SEND for the next payload and encodes the staged
// packet.
func TestStopAndWaitLoopZeroAllocs(t *testing.T) {
	sender, receiver := gen.NewSenderMachine(), gen.NewReceiverMachine()
	payload := make([]byte, 64)
	var pkt gen.Packet
	var ack gen.Ack
	if _, err := sender.SEND(payload); err != nil {
		t.Fatal(err)
	}
	pktBuf, err := gen.AppendEncodePacket(nil, &sender.OutPacket)
	if err != nil {
		t.Fatal(err)
	}
	ackBuf, err := gen.AppendEncodeAck(nil, &gen.Ack{})
	if err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(200, func() {
		if err := gen.DecodePacketInto(&pkt, pktBuf); err != nil {
			t.Fatal(err)
		}
		if out, err := receiver.RECV(&pkt); err != nil || out != gen.ReceiverTrAccept {
			t.Fatalf("RECV: outcome %d, %v", out, err)
		}
		a, err := gen.AppendEncodeAck(ackBuf[:0], &receiver.OutAck)
		if err != nil {
			t.Fatal(err)
		}
		ackBuf = a
		if err := gen.DecodeAckInto(&ack, ackBuf); err != nil {
			t.Fatal(err)
		}
		if out, err := sender.OK(&ack); err != nil || out != gen.SenderTrAck {
			t.Fatalf("OK: outcome %d, %v", out, err)
		}
		if out, err := sender.SEND(payload); err != nil || out != gen.SenderTrSend {
			t.Fatalf("SEND: outcome %d, %v", out, err)
		}
		p, err := gen.AppendEncodePacket(pktBuf[:0], &sender.OutPacket)
		if err != nil {
			t.Fatal(err)
		}
		pktBuf = p
	}); n != 0 {
		t.Fatalf("generated send/ack loop allocates %.1f/op", n)
	}
}
