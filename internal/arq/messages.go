// Package arq implements the paper's worked example (§3.4): a simple
// stop-and-wait transport protocol with automatic repeat request, built
// entirely on the DSL framework — wire-described packets, a statically
// checked state machine executed by the fsm interpreter, and validation
// witnesses for received packets. The typed-state variant, which carries
// the transition discipline in Go's type system, is generated from the
// same spec into internal/arq/gen.
//
// A go-back-N extension (window > 1) is provided as the "further work"
// the paper sketches for richer protocols.
//
// Concurrency: every engine (sender or receiver, any variant) is
// single-owner. It belongs to the event loop of the netsim.Runtime it
// was attached to — a simulator or an rtnet shard — and must only be
// touched from inside that loop (rtnet callers use Node.Do).
package arq

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/proof"
	"protodsl/internal/wire"
)

// Codec pairs arq.pdsl's Packet and Ack layouts and slot programs —
// compiled once per process and shared, immutable, by every Codec — with
// per-codec frame scratch for the allocation-free encode/decode paths.
// The scratch makes a Codec single-goroutine (like the machines it
// serves); use one Codec per endpoint.
//
// The hot-path methods (AppendEncode*, Decode*InPlace, Decode*Frame) run
// entirely on wire.Program slot frames: from the delivery buffer to the
// decoded field values, no map is touched and no string is hashed.
type Codec struct {
	Packet *wire.Layout
	Ack    *wire.Layout

	pktProg *wire.Program
	ackProg *wire.Program

	encPkt, encAck *expr.Frame // AppendEncode* scratch frames
	decPkt, decAck *expr.Frame // Decode*InPlace / Decode*Frame scratch frames

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
		Packet:  p,
		Ack:     a,
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

// Packet is the decoded, validated form of a data packet. Values are only
// constructed by DecodePacket (which verifies the checksum and length) —
// the ChkPacket discipline of §3.3.
type Packet struct {
	Seq     uint8
	Payload []byte
}

// Ack is the decoded, validated form of an acknowledgement.
type Ack struct {
	Seq uint8
}

// CheckedPacket is a validation witness for a received packet: possession
// implies the wire checksum and length checks passed.
type CheckedPacket = proof.Checked[Packet]

// CheckedAck is a validation witness for a received acknowledgement.
type CheckedAck = proof.Checked[Ack]

// packetWitness re-verifies nothing: wire.Decode already established the
// checks, so the validator's checks are structural (they document what
// the certificate asserts). The heavyweight validation lives in Decode.
var packetWitness = proof.NewValidator[Packet]("arq.Packet",
	proof.Check[Packet]{Name: "checksum-verified", Fn: func(Packet) error { return nil }},
	proof.Check[Packet]{Name: "length-verified", Fn: func(Packet) error { return nil }},
)

var ackWitness = proof.NewValidator[Ack]("arq.Ack",
	proof.Check[Ack]{Name: "checksum-verified", Fn: func(Ack) error { return nil }},
)

// EncodePacket serialises a packet; the checksum and length fields are
// computed by the wire layer.
func (c *Codec) EncodePacket(seq uint8, payload []byte) ([]byte, error) {
	return c.Packet.Encode(map[string]expr.Value{
		"seq":     expr.U8(uint64(seq)),
		"payload": expr.Bytes(payload),
	})
}

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

// DecodePacket parses and validates a received data packet. A non-nil
// witness is returned only when every wire-level check (checksum, length
// consistency, no trailing bytes) passed; "no processing occurs on
// unverified packets" (§3.4 guarantee 2) because processing code takes
// the witness, not raw bytes.
func (c *Codec) DecodePacket(data []byte) (CheckedPacket, error) {
	vals, err := c.Packet.Decode(data)
	if err != nil {
		return CheckedPacket{}, err
	}
	p := Packet{
		Seq:     uint8(vals["seq"].AsUint()),
		Payload: vals["payload"].AsBytes(),
	}
	return packetWitness.Validate(p)
}

// DecodePacketInPlace parses and validates a received data packet using
// the codec's reusable scratch frame. The returned packet's payload
// aliases data (wire.Program.DecodeInto semantics), so it is only valid
// while the caller owns data — the endpoints' per-delivery buffers
// qualify.
func (c *Codec) DecodePacketInPlace(data []byte) (CheckedPacket, error) {
	if err := c.pktProg.DecodeInto(c.decPkt, data); err != nil {
		return CheckedPacket{}, err
	}
	p := Packet{
		Seq:     uint8(c.decPkt.Get(c.pktSeq).AsUint()),
		Payload: c.decPkt.Get(c.pktPayload).RawBytes(),
	}
	return packetWitness.Validate(p)
}

// DecodePacketFrame parses and validates a received data packet into the
// codec's reusable packet frame and returns it. The frame is laid out by
// the packet's canonical shape (field i at slot i) — wrap it with
// expr.FrameMsg to hand the machine a slot-backed message value. Byte
// fields alias data; both frame and aliases are valid until the next
// packet decode on this codec.
func (c *Codec) DecodePacketFrame(data []byte) (*expr.Frame, error) {
	if err := c.pktProg.DecodeInto(c.decPkt, data); err != nil {
		return nil, err
	}
	return c.decPkt, nil
}

// DecodeAckFrame is DecodePacketFrame for acknowledgements.
func (c *Codec) DecodeAckFrame(data []byte) (*expr.Frame, error) {
	if err := c.ackProg.DecodeInto(c.decAck, data); err != nil {
		return nil, err
	}
	return c.decAck, nil
}

// PacketPayloadSlot returns the canonical slot of the packet payload
// field (for engines reading payloads straight from a decoded frame).
func (c *Codec) PacketPayloadSlot() int { return c.pktPayload }

// EncodeAck serialises an acknowledgement.
func (c *Codec) EncodeAck(seq uint8) ([]byte, error) {
	return c.Ack.Encode(map[string]expr.Value{"seq": expr.U8(uint64(seq))})
}

// DecodeAck parses and validates a received acknowledgement.
func (c *Codec) DecodeAck(data []byte) (CheckedAck, error) {
	vals, err := c.Ack.Decode(data)
	if err != nil {
		return CheckedAck{}, err
	}
	return ackWitness.Validate(Ack{Seq: uint8(vals["seq"].AsUint())})
}

// DecodeAckInPlace parses and validates an acknowledgement using the
// codec's reusable scratch frame (no allocations on the success path).
func (c *Codec) DecodeAckInPlace(data []byte) (CheckedAck, error) {
	if err := c.ackProg.DecodeInto(c.decAck, data); err != nil {
		return CheckedAck{}, err
	}
	return ackWitness.Validate(Ack{Seq: uint8(c.decAck.Get(c.ackSeq).AsUint())})
}

// The endpoints hand the interpreter slot-backed message values —
// expr.FrameMsg over the codec's decode frames, using the machine
// program's shapes — so guards index fields by slot instead of hashing
// names (see endpoints.go). The former map-copying packetValue/ackValue
// helpers, and the reusable field maps that replaced them, are gone from
// the per-packet path entirely.
