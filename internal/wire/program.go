package wire

import (
	"fmt"

	"protodsl/internal/expr"
)

// This file implements slot-compiled wire programs: a Layout lowered to a
// flat sequence of field ops whose slot indices, bit widths, length
// disciplines and checksum patch offsets are all resolved at compile
// time. A Program encodes from and decodes into an expr.Frame whose slot
// i holds field i (the message's canonical shape), so the per-packet
// codec path performs no map operation and hashes no string — the frame
// the codec fills is the same frame the compiled machine guards index
// (expr.FrameMsg / ScopeLayout.SetShape).
//
// The map[string]expr.Value Layout methods (Encode, AppendEncode, Decode,
// DecodeInto) remain as the compatibility codec for tests, examples and
// one-shot callers; the differential tests in internal/dsl assert the two
// paths agree byte for byte, error class for error class.

// Program is a Layout compiled to slot ops. Obtain one with
// Layout.Program(); it is immutable and shareable across goroutines
// (frames are the single-owner part).
type Program struct {
	layout *Layout
	msg    *Message
	shape  *expr.MsgShape

	ops       []progOp
	autoLens  []autoLenOp
	computes  []computeOp
	checksums []checksumPatch
	numFields int
}

// progOp serialises or parses one field.
type progOp struct {
	name       string
	kind       FieldKind
	slot       int
	bits       int  // FieldUint width
	isChecksum bool // encode writes zeros; patched afterwards

	// Length discipline for FieldBytes.
	lenKind  LenKind
	lenBytes int           // LenFixed
	lenSlot  int           // LenField: slot of the length field
	lenExpr  expr.Compiled // LenExpr, compiled over the field frame
}

// autoLenOp fills a plain LenField length field from its payload's length
// on encode.
type autoLenOp struct {
	payloadSlot int
	lenSlot     int
	lenBits     int
}

// computeOp evaluates a ComputeExpr field: filled on encode, re-verified
// on decode.
type computeOp struct {
	name string
	slot int
	bits int
	fn   expr.Compiled
}

// checksumPatch records a checksum field's fixed byte offset for the
// deferred single-pass patch (encode) and the zero-verify-restore cycle
// (decode).
type checksumPatch struct {
	name    string
	slot    int
	algo    ChecksumAlgo
	byteOff int
	nBytes  int
}

// newProgram lowers a compiled (validated) layout; it cannot fail.
func newProgram(l *Layout) *Program {
	m := l.msg
	p := &Program{layout: l, msg: m, numFields: len(m.Fields)}

	names := make([]string, len(m.Fields))
	fieldLayout := expr.NewScopeLayout()
	for i := range m.Fields {
		names[i] = m.Fields[i].Name
		fieldLayout.Add(m.Fields[i].Name) // slot i == field index i
	}
	p.shape = expr.NewMsgShape(m.Name, names)

	slotOf := func(name string) int {
		s, _ := fieldLayout.Slot(name)
		return s
	}

	for i := range m.Fields {
		f := &m.Fields[i]
		op := progOp{name: f.Name, kind: f.Kind, slot: i, bits: f.Bits}
		switch {
		case f.Compute != nil && f.Compute.Kind == ComputeChecksum:
			op.isChecksum = true
			off, _ := l.FieldOffset(f.Name) // fixed + byte-aligned, by Compile
			p.checksums = append(p.checksums, checksumPatch{
				name: f.Name, slot: i, algo: f.Compute.Algo,
				byteOff: off / 8, nBytes: f.Bits / 8,
			})
		case f.Compute != nil && f.Compute.Kind == ComputeExpr:
			p.computes = append(p.computes, computeOp{
				name: f.Name, slot: i, bits: f.Bits,
				fn: expr.Compile(f.Compute.Expr, fieldLayout),
			})
		}
		if f.Kind == FieldBytes {
			op.lenKind = f.LenKind
			op.lenBytes = f.LenBytes
			switch f.LenKind {
			case LenField:
				op.lenSlot = slotOf(f.LenField)
				lenField, _ := m.Field(f.LenField)
				if lenField.Compute == nil {
					p.autoLens = append(p.autoLens, autoLenOp{
						payloadSlot: i, lenSlot: op.lenSlot, lenBits: lenField.Bits,
					})
				}
			case LenExpr:
				op.lenExpr = expr.Compile(f.LenExpr, fieldLayout)
			}
		}
		p.ops = append(p.ops, op)
	}
	return p
}

// Shape returns the message's canonical shape: field i at slot i. Wrap a
// program frame with expr.FrameMsg(shape, frame) to hand it to compiled
// machine guards (engines use the machine program's shape of the same
// message so the compiled fast path hits; any canonical shape indexes the
// frame correctly).
func (p *Program) Shape() *expr.MsgShape { return p.shape }

// Slot returns the frame slot of the named field (its field index).
func (p *Program) Slot(name string) (int, bool) { return p.shape.Slot(name) }

// NewFrame allocates a frame sized for the program.
func (p *Program) NewFrame() *expr.Frame { return expr.NewFrame(p.numFields) }

// AppendEncode serialises the message from the frame's field slots into
// the tail of dst and returns the extended slice — the slot counterpart
// of Layout.AppendEncode, with one difference in contract: computed
// fields (expression fields, auto-filled lengths, checksums) are always
// recomputed and written back into their slots, never verified against a
// previously supplied value, so a frame reused across packets needs only
// its plain slots refreshed. The serialisation is a single pass; checksum
// fields are written as zeros and patched at their precomputed offsets
// afterwards.
func (p *Program) AppendEncode(dst []byte, f *expr.Frame) ([]byte, error) {
	m := p.msg
	for i := range p.autoLens {
		al := &p.autoLens[i]
		if pv := f.Get(al.payloadSlot); pv.Kind() == expr.KindBytes {
			n := uint64(len(pv.RawBytes()))
			if n>>al.lenBits != 0 {
				return nil, codecErr(m.Name, m.Fields[al.payloadSlot].Name, lengthErr(n, al.lenBits))
			}
			f.Set(al.lenSlot, expr.Uint(n, al.lenBits))
		}
	}
	for i := range p.computes {
		c := &p.computes[i]
		v, err := c.fn(f)
		if err != nil {
			return nil, codecErr(m.Name, c.name, err)
		}
		f.Set(c.slot, v.WithBits(c.bits))
	}

	w := &bitWriter{buf: dst, base: len(dst)}
	for i := range p.ops {
		op := &p.ops[i]
		if op.isChecksum {
			w.writeBits(0, op.bits) // patched below
			continue
		}
		v := f.Get(op.slot)
		switch op.kind {
		case FieldUint:
			if v.Kind() != expr.KindUint {
				if v.Kind() == expr.KindInvalid {
					return nil, codecErr(m.Name, op.name, ErrMissingField)
				}
				return nil, codecErr(m.Name, op.name,
					fmt.Errorf("%w: expected uint, got %s", ErrBadFieldValue, v.Kind()))
			}
			if op.bits < 64 && v.AsUint() >= 1<<uint(op.bits) {
				return nil, codecErr(m.Name, op.name,
					fmt.Errorf("%w: value %d does not fit in %d bits", ErrBadFieldValue, v.AsUint(), op.bits))
			}
			w.writeBits(v.AsUint(), op.bits)
		case FieldBytes:
			if v.Kind() != expr.KindBytes {
				if v.Kind() == expr.KindInvalid {
					return nil, codecErr(m.Name, op.name, ErrMissingField)
				}
				return nil, codecErr(m.Name, op.name,
					fmt.Errorf("%w: expected bytes, got %s", ErrBadFieldValue, v.Kind()))
			}
			b := v.RawBytes()
			switch op.lenKind {
			case LenFixed:
				if len(b) != op.lenBytes {
					return nil, codecErr(m.Name, op.name,
						fmt.Errorf("%w: fixed-length field needs %d bytes, got %d", ErrBadFieldValue, op.lenBytes, len(b)))
				}
			case LenExpr:
				want, err := op.lenExpr(f)
				if err != nil {
					return nil, codecErr(m.Name, op.name, err)
				}
				if uint64(len(b)) != want.AsUint() {
					return nil, codecErr(m.Name, op.name,
						fmt.Errorf("%w: length expression gives %d, payload is %d bytes", ErrBadFieldValue, want.AsUint(), len(b)))
				}
			}
			if err := w.writeBytes(b); err != nil {
				return nil, codecErr(m.Name, op.name, err)
			}
		}
	}
	if !w.aligned() {
		return nil, codecErr(m.Name, "", fmt.Errorf("encoded size is not byte-aligned"))
	}
	// Compute every checksum over the serialisation as written — all
	// checksum fields still zero — *before* patching any of them, so
	// each matches what decode recomputes (which zeroes all checksum
	// fields at once). Patching as we went would fold earlier checksums
	// into later ones and break round-trips of multi-checksum messages.
	var sumsBuf [4]uint64
	sums := sumsBuf[:0]
	if len(p.checksums) > len(sumsBuf) {
		sums = make([]uint64, 0, len(p.checksums))
	}
	for i := range p.checksums {
		sums = append(sums, checksumOf(p.checksums[i].algo, w.buf[w.base:]))
	}
	for i := range p.checksums {
		cs := &p.checksums[i]
		patchUint(w.buf, w.base+cs.byteOff, cs.nBytes, sums[i])
		f.Set(cs.slot, expr.Uint(sums[i], cs.nBytes*8))
	}
	return w.buf, nil
}

// DecodeInto parses and validates the message into the frame's field
// slots, performing exactly the checks of Layout.DecodeInto with the same
// in-place contract: byte-field slots alias data, and during checksum
// verification the checksum bytes of data are briefly zeroed and restored,
// so data must not be read concurrently and must be caller-owned. All
// field slots are reset first, so after a failed decode the frame holds
// no stale field values.
func (p *Program) DecodeInto(f *expr.Frame, data []byte) error {
	m := p.msg
	for i := 0; i < p.numFields; i++ {
		f.Set(i, expr.Value{})
	}
	r := &bitReader{buf: data}
	for i := range p.ops {
		op := &p.ops[i]
		switch op.kind {
		case FieldUint:
			v, err := r.readBits(op.bits)
			if err != nil {
				return codecErr(m.Name, op.name, err)
			}
			f.Set(op.slot, expr.Uint(v, op.bits))
		case FieldBytes:
			var n int
			switch op.lenKind {
			case LenFixed:
				n = op.lenBytes
			case LenField:
				n = int(f.Get(op.lenSlot).AsUint())
			case LenExpr:
				v, err := op.lenExpr(f)
				if err != nil {
					return codecErr(m.Name, op.name, err)
				}
				n = int(v.AsUint())
			case LenRest:
				n = r.remainingBytes()
			}
			b, err := r.readBytesView(n)
			if err != nil {
				return codecErr(m.Name, op.name, err)
			}
			f.Set(op.slot, expr.BytesView(b))
		}
	}
	if !r.done() {
		return codecErr(m.Name, "", fmt.Errorf("%w: %d bytes", ErrTrailingBytes, r.remainingBytes()))
	}

	for i := range p.computes {
		c := &p.computes[i]
		want, err := c.fn(f)
		if err != nil {
			return codecErr(m.Name, c.name, err)
		}
		if got := f.Get(c.slot); got.AsUint() != want.WithBits(c.bits).AsUint() {
			return codecErr(m.Name, c.name,
				fmt.Errorf("%w: received %d, computed %d", ErrFieldMismatch, got.AsUint(), want.AsUint()))
		}
	}

	if len(p.checksums) == 0 {
		return nil
	}
	// Zero every checksum field in place, verify each against its
	// recomputation, then restore the received bytes.
	for i := range p.checksums {
		cs := &p.checksums[i]
		for j := 0; j < cs.nBytes; j++ {
			data[cs.byteOff+j] = 0
		}
	}
	var mismatch error
	for i := range p.checksums {
		cs := &p.checksums[i]
		want := checksumOf(cs.algo, data)
		if got := f.Get(cs.slot).AsUint(); got != want {
			mismatch = codecErr(m.Name, cs.name,
				fmt.Errorf("%w: received %#x, computed %#x", ErrChecksumMismatch, got, want))
			break
		}
	}
	for i := range p.checksums {
		cs := &p.checksums[i]
		patchUint(data, cs.byteOff, cs.nBytes, f.Get(cs.slot).AsUint())
	}
	return mismatch
}
