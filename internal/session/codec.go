// Control-frame codec: slot-program encode/decode for the seven
// handshake messages, plus the classifier that splits a shared flow's
// receive path into control frames and ARQ data. Mirrors the
// internal/arq codec idiom: layouts compiled once, reusable frames, and
// append-style encoders that never allocate on the steady-state path.

package session

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// messageKinds maps spec message names (as they appear in machine
// outputs) to their wire kinds.
var messageKinds = map[string]Kind{
	"Syn":     KindSyn,
	"SynAck":  KindSynAck,
	"AckC":    KindAckC,
	"Fin":     KindFin,
	"FinAck":  KindFinAck,
	"Beat":    KindBeat,
	"BeatAck": KindBeatAck,
}

// msgCodec is one control message's compiled program plus reusable
// encode/decode frames and cached field slots (-1 when absent).
type msgCodec struct {
	prog   *wire.Program
	enc    *expr.Frame
	dec    *expr.Frame
	size   int
	magic  int
	kind   int
	nonce  int
	cookie int
	seq    int
}

// Codec encodes and classifies control frames. It is single-goroutine
// (one per shard-loop engine), like the arq codec: the internal frames
// are scratch space reused across calls.
type Codec struct {
	by [numKinds]msgCodec
}

// NewCodec builds a codec from the compiled handshake protocol.
func NewCodec() (*Codec, error) {
	p, err := compiled()
	if err != nil {
		return nil, err
	}
	c := &Codec{}
	for k := KindSyn; k <= KindBeatAck; k++ {
		name := kindMessage[k]
		layout, ok := p.layouts[name]
		if !ok {
			return nil, fmt.Errorf("session: handshake spec has no %s message", name)
		}
		size, fixed := layout.FixedSize()
		if !fixed {
			return nil, fmt.Errorf("session: control message %s is not fixed-size", name)
		}
		prog := layout.Program()
		mc := msgCodec{prog: prog, enc: prog.NewFrame(), dec: prog.NewFrame(), size: size}
		mc.magic = mustSlot(prog, name, "magic")
		mc.kind = mustSlot(prog, name, "kind")
		mc.nonce, mc.cookie, mc.seq = -1, -1, -1
		switch k {
		case KindSyn:
			mc.nonce = mustSlot(prog, name, "nonce")
		case KindSynAck, KindAckC:
			mc.nonce = mustSlot(prog, name, "nonce")
			mc.cookie = mustSlot(prog, name, "cookie")
		case KindBeat, KindBeatAck:
			mc.seq = mustSlot(prog, name, "seq")
		}
		c.by[k] = mc
	}
	return c, nil
}

func mustSlot(prog *wire.Program, msg, field string) int {
	slot, ok := prog.Slot(field)
	if !ok {
		panic(fmt.Sprintf("session: message %s has no %s field", msg, field))
	}
	return slot
}

// ControlSize returns the exact wire size of kind k's frames.
func (c *Codec) ControlSize(k Kind) int { return c.by[k].size }

// encode stamps the shared header slots and appends the encoded frame.
// Encode errors are impossible for in-range inputs (the programs are
// compiled from the canonical spec), so any error is a codec bug worth
// a loud stop.
func (c *Codec) encode(dst []byte, k Kind) []byte {
	mc := &c.by[k]
	mc.enc.Set(mc.magic, expr.U8(Magic))
	mc.enc.Set(mc.kind, expr.U8(uint64(k)))
	out, err := mc.prog.AppendEncode(dst, mc.enc)
	if err != nil {
		panic(fmt.Sprintf("session: encoding %s: %v", kindMessage[k], err))
	}
	return out
}

// AppendSyn appends an encoded SYN carrying the client nonce.
func (c *Codec) AppendSyn(dst []byte, nonce uint32) []byte {
	mc := &c.by[KindSyn]
	mc.enc.Set(mc.nonce, expr.U32(uint64(nonce)))
	return c.encode(dst, KindSyn)
}

// AppendSynAck appends an encoded SYN-ACK echoing nonce with its cookie.
func (c *Codec) AppendSynAck(dst []byte, nonce, cookie uint32) []byte {
	mc := &c.by[KindSynAck]
	mc.enc.Set(mc.nonce, expr.U32(uint64(nonce)))
	mc.enc.Set(mc.cookie, expr.U32(uint64(cookie)))
	return c.encode(dst, KindSynAck)
}

// AppendAckC appends an encoded ACK-C returning the cookie.
func (c *Codec) AppendAckC(dst []byte, nonce, cookie uint32) []byte {
	mc := &c.by[KindAckC]
	mc.enc.Set(mc.nonce, expr.U32(uint64(nonce)))
	mc.enc.Set(mc.cookie, expr.U32(uint64(cookie)))
	return c.encode(dst, KindAckC)
}

// AppendFin appends an encoded FIN.
func (c *Codec) AppendFin(dst []byte) []byte { return c.encode(dst, KindFin) }

// AppendFinAck appends an encoded FIN-ACK.
func (c *Codec) AppendFinAck(dst []byte) []byte { return c.encode(dst, KindFinAck) }

// AppendBeat appends an encoded heartbeat with sequence seq.
func (c *Codec) AppendBeat(dst []byte, seq uint32) []byte {
	mc := &c.by[KindBeat]
	mc.enc.Set(mc.seq, expr.U32(uint64(seq)))
	return c.encode(dst, KindBeat)
}

// AppendBeatAck appends an encoded heartbeat echo.
func (c *Codec) AppendBeatAck(dst []byte, seq uint32) []byte {
	mc := &c.by[KindBeatAck]
	mc.enc.Set(mc.seq, expr.U32(uint64(seq)))
	return c.encode(dst, KindBeatAck)
}

// appendOutput encodes a machine output frame with kind k's wire
// program — valid because the loader (dsl.Load) asserts layout parity
// between the machine shapes and the wire shapes.
func appendOutput(dst []byte, c *Codec, k Kind, f *expr.Frame) []byte {
	out, err := c.by[k].prog.AppendEncode(dst, f)
	if err != nil {
		panic(fmt.Sprintf("session: encoding %s output: %v", kindMessage[k], err))
	}
	return out
}

// Classify decodes data as a control frame, returning its kind, or 0
// when data is not control and must take the data path. Classification
// is full validation — magic lead byte, known kind, exact fixed length,
// and the sum8 trailer — so a frame that fails any check falls through
// to the data engines rather than being half-trusted as control. On a
// non-zero return the decoded fields are readable through the accessors
// (and Frame) until the next Classify call.
func (c *Codec) Classify(data []byte) Kind {
	if len(data) < 3 || data[0] != Magic {
		return 0
	}
	k := Kind(data[1])
	if k < KindSyn || k > KindBeatAck {
		return 0
	}
	mc := &c.by[k]
	if len(data) != mc.size {
		return 0
	}
	if err := mc.prog.DecodeInto(mc.dec, data); err != nil {
		return 0
	}
	return k
}

// Frame returns kind k's decode frame (the fields of the last frame
// Classify accepted with that kind), for building machine event
// arguments via expr.FrameMsg.
func (c *Codec) Frame(k Kind) *expr.Frame { return c.by[k].dec }

func (c *Codec) decU32(k Kind, slot int) uint32 {
	return uint32(c.by[k].dec.Get(slot).AsUint())
}

// SynNonce reads the last classified SYN's nonce.
func (c *Codec) SynNonce() uint32 { return c.decU32(KindSyn, c.by[KindSyn].nonce) }

// SynAckNonce reads the last classified SYN-ACK's echoed nonce.
func (c *Codec) SynAckNonce() uint32 { return c.decU32(KindSynAck, c.by[KindSynAck].nonce) }

// SynAckCookie reads the last classified SYN-ACK's cookie.
func (c *Codec) SynAckCookie() uint32 { return c.decU32(KindSynAck, c.by[KindSynAck].cookie) }

// AckCNonce reads the last classified ACK-C's nonce.
func (c *Codec) AckCNonce() uint32 { return c.decU32(KindAckC, c.by[KindAckC].nonce) }

// AckCCookie reads the last classified ACK-C's returned cookie.
func (c *Codec) AckCCookie() uint32 { return c.decU32(KindAckC, c.by[KindAckC].cookie) }
