package wire

import "protodsl/internal/expr"

// This file exports a read-only view of a Program's compiled tables so
// backends outside the package — the AOT Go generator in
// internal/codegen — can consume the exact artifact the interpreter
// executes (slot indices, resolved bit offsets, length disciplines,
// checksum patch offsets) instead of re-deriving layout facts from the
// AST. See DESIGN.md §11.

// OpIR describes one field op of a compiled wire program, with every
// compile-time-resolved quantity the slot interpreter uses.
type OpIR struct {
	Name string
	Kind FieldKind
	// Slot is the field's frame slot (== its field index).
	Slot int
	// Bits is the width of a FieldUint op.
	Bits int
	// IsChecksum marks checksum fields: encoded as zeros, patched after
	// serialisation (see ChecksumIR).
	IsChecksum bool

	// Length discipline for FieldBytes ops.
	LenKind  LenKind
	LenBytes int       // LenFixed
	LenSlot  int       // LenField: slot of the length field (-1 otherwise)
	LenExpr  expr.Expr // LenExpr: checked AST over preceding fields
}

// AutoLenIR records a plain length field the encoder fills from its
// payload's length.
type AutoLenIR struct {
	PayloadSlot int
	LenSlot     int
}

// ChecksumIR records a checksum field's fixed byte offset for the
// deferred patch (encode) and the zero-verify-restore cycle (decode).
type ChecksumIR struct {
	Name    string
	Algo    ChecksumAlgo
	ByteOff int
	NBytes  int
}

// ProgramIR is the complete exported view of a compiled wire program.
type ProgramIR struct {
	Ops       []OpIR
	AutoLens  []AutoLenIR
	Checksums []ChecksumIR
	// FixedPrefixBytes is the byte size of the fixed-offset prefix
	// (everything before the first variable-length field; the whole
	// message when there is none).
	FixedPrefixBytes int
	// HasVariable reports whether any field has variable length.
	HasVariable bool
}

// IR returns the program's compiled tables. The slices are freshly
// allocated; the embedded ASTs are shared and must not be mutated.
func (p *Program) IR() ProgramIR {
	ir := ProgramIR{
		FixedPrefixBytes: p.layout.fixedPrefixBits / 8,
		HasVariable:      p.layout.hasVariable,
	}
	for i := range p.ops {
		op := &p.ops[i]
		f, _ := p.msg.Field(op.name)
		o := OpIR{
			Name:       op.name,
			Kind:       op.kind,
			Slot:       op.slot,
			Bits:       op.bits,
			IsChecksum: op.isChecksum,
			LenKind:    op.lenKind,
			LenBytes:   op.lenBytes,
			LenSlot:    -1,
		}
		if op.kind == FieldBytes {
			switch op.lenKind {
			case LenField:
				o.LenSlot = op.lenSlot
			case LenExpr:
				o.LenExpr = f.LenExpr
			}
		}
		ir.Ops = append(ir.Ops, o)
	}
	for i := range p.autoLens {
		al := &p.autoLens[i]
		ir.AutoLens = append(ir.AutoLens, AutoLenIR{
			PayloadSlot: al.payloadSlot, LenSlot: al.lenSlot,
		})
	}
	for i := range p.checksums {
		cs := &p.checksums[i]
		ir.Checksums = append(ir.Checksums, ChecksumIR{
			Name: cs.name, Algo: cs.algo, ByteOff: cs.byteOff, NBytes: cs.nBytes,
		})
	}
	return ir
}
