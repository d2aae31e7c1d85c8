// Package arq implements the paper's worked example (§3.4): a simple
// stop-and-wait transport protocol with automatic repeat request, built
// entirely on the DSL framework. Everything the stop-and-wait engines
// run is generated from arq.pdsl into internal/arq/gen: the statically
// checked Sender and Receiver machines as flat table dispatch, and the
// Packet and Ack codecs, whose decoders fill their target only after
// every wire check passed. The compiled fsm interpreter running the
// same spec is the reference the tests hold them to.
//
// Go-back-N and selective repeat (window > 1) are provided as the
// "further work" the paper sketches for richer protocols. They use
// Codec, the slot-program codec over the same layouts, whose decoders
// return validation witnesses: CheckedPacket and CheckedAck, values
// that only the validating decoders can build.
//
// Concurrency: every engine (sender or receiver, any variant) is
// single-owner. It belongs to the event loop of the netsim.Runtime it
// was attached to — a simulator or an rtnet shard — and must only be
// touched from inside that loop (rtnet callers use Node.Do).
package arq

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// Codec pairs the slot programs of arq.pdsl's Packet and Ack layouts —
// compiled once per process and shared, immutable, by every Codec — with
// per-codec frame scratch, so encoding and decoding allocate nothing:
// from the delivery buffer to the decoded field values, no map is
// touched and no string is hashed. The scratch makes a Codec
// single-goroutine (like the engines it serves); use one Codec per
// endpoint. Tests that need the map-based reference codec take the
// layout from the compiled spec.
type Codec struct {
	pktProg *wire.Program
	ackProg *wire.Program

	encPkt, encAck *expr.Frame // AppendEncode* scratch frames
	decPkt, decAck *expr.Frame // Decode*InPlace scratch frames

	pktSeq, pktPayload, ackSeq int // canonical field slots
}

// NewCodec builds a codec over the shared Packet and Ack layouts of
// arq.pdsl:
//
//	Pkt : Byte(seq) → Byte(chk) → List Byte(payload)
//
// realised on the wire as seq:8, chk:8 (sum8 over the whole packet with
// chk zeroed), a 16-bit payload length and the payload bytes; the ack is
// the acknowledged seq under the same checksum. Only the scratch frames
// are per codec.
func NewCodec() (*Codec, error) {
	proto, err := arqSpec()
	if err != nil {
		return nil, fmt.Errorf("arq: %w", err)
	}
	p, a := proto.Layouts["Packet"], proto.Layouts["Ack"]
	if p == nil || a == nil {
		return nil, fmt.Errorf("arq: arq.pdsl lacks a Packet or Ack message")
	}
	c := &Codec{
		pktProg: p.Program(),
		ackProg: a.Program(),
	}
	c.encPkt = c.pktProg.NewFrame()
	c.encAck = c.ackProg.NewFrame()
	c.decPkt = c.pktProg.NewFrame()
	c.decAck = c.ackProg.NewFrame()
	c.pktSeq, _ = c.pktProg.Slot("seq")
	c.pktPayload, _ = c.pktProg.Slot("payload")
	c.ackSeq, _ = c.ackProg.Slot("seq")
	return c, nil
}

// PacketProgram returns the packet's slot program (shared, immutable).
func (c *Codec) PacketProgram() *wire.Program { return c.pktProg }

// AckProgram returns the ack's slot program (shared, immutable).
func (c *Codec) AckProgram() *wire.Program { return c.ackProg }

// Packet is the decoded, validated form of a data packet.
type Packet struct {
	Seq     uint8
	Payload []byte
}

// Ack is the decoded, validated form of an acknowledgement.
type Ack struct {
	Seq uint8
}

// CheckedPacket is a validation witness for a received packet — the
// ChkPacket discipline of §3.3. Only DecodePacketInPlace builds one, and
// only after the wire checksum and length checks passed, so possession
// implies the packet is valid.
type CheckedPacket struct{ v Packet }

// Value returns the validated packet.
func (c CheckedPacket) Value() Packet { return c.v }

// CheckedAck is a validation witness for a received acknowledgement,
// built only by DecodeAckInPlace.
type CheckedAck struct{ v Ack }

// Value returns the validated acknowledgement.
func (c CheckedAck) Value() Ack { return c.v }

// AppendEncodePacket serialises a packet into the tail of dst and
// returns the extended slice — the allocation-free hot-loop path: the
// payload is not copied and the field slots are the codec's reusable
// scratch frame (the length and checksum slots are recomputed by the
// slot program on every call).
func (c *Codec) AppendEncodePacket(dst []byte, seq uint8, payload []byte) ([]byte, error) {
	c.encPkt.Set(c.pktSeq, expr.U8(uint64(seq)))
	c.encPkt.Set(c.pktPayload, expr.BytesView(payload))
	return c.pktProg.AppendEncode(dst, c.encPkt)
}

// AppendEncodeAck serialises an acknowledgement into the tail of dst.
func (c *Codec) AppendEncodeAck(dst []byte, seq uint8) ([]byte, error) {
	c.encAck.Set(c.ackSeq, expr.U8(uint64(seq)))
	return c.ackProg.AppendEncode(dst, c.encAck)
}

// DecodePacketInPlace parses and validates a received data packet using
// the codec's reusable scratch frame. A witness is returned only when
// every wire-level check (checksum, length consistency, no trailing
// bytes) passed; "no processing occurs on unverified packets" (§3.4
// guarantee 2) because processing code takes the witness, not raw bytes.
// The packet's payload aliases data (wire.Program.DecodeInto
// semantics), so it is only valid while the caller owns data — the
// engines' per-delivery buffers qualify.
func (c *Codec) DecodePacketInPlace(data []byte) (CheckedPacket, error) {
	if err := c.pktProg.DecodeInto(c.decPkt, data); err != nil {
		return CheckedPacket{}, err
	}
	return CheckedPacket{Packet{
		Seq:     uint8(c.decPkt.Get(c.pktSeq).AsUint()),
		Payload: c.decPkt.Get(c.pktPayload).RawBytes(),
	}}, nil
}

// DecodeAckInPlace parses and validates an acknowledgement using the
// codec's reusable scratch frame (no allocations on the success path).
func (c *Codec) DecodeAckInPlace(data []byte) (CheckedAck, error) {
	if err := c.ackProg.DecodeInto(c.decAck, data); err != nil {
		return CheckedAck{}, err
	}
	return CheckedAck{Ack{Seq: uint8(c.decAck.Get(c.ackSeq).AsUint())}}, nil
}
