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
// "further work" the paper sketches for richer protocols. They encode
// and decode with the same generated Packet and Ack codecs, through
// Codec, whose decoders return validation witnesses: CheckedPacket and
// CheckedAck, values that only the validating decoders can build.
//
// Concurrency: every engine (sender or receiver, any variant) is
// single-owner. It belongs to the event loop of the netsim.Runtime it
// was attached to — a simulator or an rtnet shard — and must only be
// touched from inside that loop (rtnet callers use Node.Do).
package arq

import (
	"fmt"

	"protodsl/internal/arq/gen"
	"protodsl/internal/wire"
)

// Codec is the windowed engines' Packet and Ack codec: its hot methods
// run the encoders and decoders generated from arq.pdsl into
// internal/arq/gen, so encoding and decoding allocate nothing and touch
// no map, slot frame or interpreter. It holds no scratch, only the
// shared, immutable slot programs of the same layouts, which the tests
// hold the generated code against. A decode error wraps the wire
// sentinel of its class (short buffer, trailing bytes, checksum
// mismatch), as the slot programs' would; an encode error wraps
// wire.ErrBadFieldValue.
type Codec struct {
	pktProg *wire.Program
	ackProg *wire.Program
}

// NewCodec builds a codec over the shared Packet and Ack layouts of
// arq.pdsl:
//
//	Pkt : Byte(seq) → Byte(chk) → List Byte(payload)
//
// realised on the wire as seq:8, chk:8 (sum8 over the whole packet with
// chk zeroed), a 16-bit payload length and the payload bytes; the ack is
// the acknowledged seq under the same checksum. It refuses to build
// unless arq.pdsl, the spec the codecs were generated from, still
// compiles and checks.
func NewCodec() (*Codec, error) {
	proto, err := arqSpec()
	if err != nil {
		return nil, fmt.Errorf("arq: %w", err)
	}
	p, a := proto.Layouts["Packet"], proto.Layouts["Ack"]
	if p == nil || a == nil {
		return nil, fmt.Errorf("arq: arq.pdsl lacks a Packet or Ack message")
	}
	return &Codec{pktProg: p.Program(), ackProg: a.Program()}, nil
}

// PacketProgram returns the packet's slot program (shared, immutable).
func (c *Codec) PacketProgram() *wire.Program { return c.pktProg }

// AckProgram returns the ack's slot program (shared, immutable).
func (c *Codec) AckProgram() *wire.Program { return c.ackProg }

// Packet is the decoded, validated form of a data packet: the message
// type generated from arq.pdsl.
type Packet = gen.Packet

// Ack is the decoded, validated form of an acknowledgement.
type Ack = gen.Ack

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
// payload is copied straight into dst and the length and checksum are
// computed by the generated encoder.
func (c *Codec) AppendEncodePacket(dst []byte, seq uint8, payload []byte) ([]byte, error) {
	return gen.AppendEncodePacket(dst, &Packet{Seq: seq, Payload: payload})
}

// AppendEncodeAck serialises an acknowledgement into the tail of dst.
func (c *Codec) AppendEncodeAck(dst []byte, seq uint8) ([]byte, error) {
	return gen.AppendEncodeAck(dst, &Ack{Seq: seq})
}

// DecodePacketInPlace parses and validates a received data packet. A
// witness is returned only when every wire-level check (checksum, length
// consistency, no trailing bytes) passed; "no processing occurs on
// unverified packets" (§3.4 guarantee 2) because processing code takes
// the witness, not raw bytes. The packet's payload aliases data, so it
// is only valid while the caller owns data — the engines' per-delivery
// buffers qualify.
func (c *Codec) DecodePacketInPlace(data []byte) (CheckedPacket, error) {
	var w CheckedPacket
	err := gen.DecodePacketInto(&w.v, data) // leaves w zero on error
	return w, err
}

// DecodeAckInPlace parses and validates an acknowledgement (no
// allocations on the success path).
func (c *Codec) DecodeAckInPlace(data []byte) (CheckedAck, error) {
	var w CheckedAck
	err := gen.DecodeAckInto(&w.v, data) // leaves w zero on error
	return w, err
}
