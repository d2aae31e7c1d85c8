package wire

import (
	"fmt"

	"protodsl/internal/expr"
)

// FieldKind distinguishes unsigned-integer bit fields from byte payloads.
type FieldKind int

// Field kinds.
const (
	FieldUint FieldKind = iota + 1
	FieldBytes
)

// LenKind says how the byte length of a FieldBytes field is determined.
type LenKind int

// Length disciplines for byte fields.
const (
	// LenFixed: the field is exactly LenBytes bytes long.
	LenFixed LenKind = iota + 1
	// LenField: the length in bytes is carried by a preceding uint field.
	LenField
	// LenExpr: the length in bytes is computed by an expression over
	// preceding fields (e.g. IPv4 options: (ihl - 5) * 4).
	LenExpr
	// LenRest: the field consumes all remaining bytes; only valid for the
	// final field of a message.
	LenRest
)

// ChecksumAlgo enumerates checksum algorithms for computed checksum fields.
type ChecksumAlgo int

// Checksum algorithms. The checksum is computed over the entire encoded
// message with every checksum field zeroed.
const (
	// ChecksumSum8 is the paper's additive mod-256 checksum (8-bit field).
	ChecksumSum8 ChecksumAlgo = iota + 1
	// ChecksumInet16 is the RFC 1071 Internet checksum (16-bit field).
	ChecksumInet16
	// ChecksumCRC32 is the IEEE CRC-32 (32-bit field).
	ChecksumCRC32
)

// String returns the algorithm name.
func (a ChecksumAlgo) String() string {
	switch a {
	case ChecksumSum8:
		return "sum8"
	case ChecksumInet16:
		return "inet16"
	case ChecksumCRC32:
		return "crc32"
	default:
		return "unknown"
	}
}

// bits returns the field width the algorithm requires.
func (a ChecksumAlgo) bits() int {
	switch a {
	case ChecksumSum8:
		return 8
	case ChecksumInet16:
		return 16
	case ChecksumCRC32:
		return 32
	default:
		return 0
	}
}

// ComputeKind distinguishes the two classes of computed fields.
type ComputeKind int

// Computed-field kinds.
const (
	// ComputeExpr: the field value is an expression over the message's
	// plain fields (e.g. a length field: len(payload)).
	ComputeExpr ComputeKind = iota + 1
	// ComputeChecksum: the field value is a checksum over the encoded
	// message bytes with checksum fields zeroed.
	ComputeChecksum
)

// Compute describes how a computed field obtains its value. On encode the
// value is filled in automatically; on decode it is recomputed and
// verified, which is what makes a decoded message a *validated* message
// (the paper's ChkPacket discipline, §3.3).
type Compute struct {
	Kind ComputeKind
	Expr expr.Expr    // for ComputeExpr
	Algo ChecksumAlgo // for ComputeChecksum
}

// Field is one field of a message layout, in wire order.
type Field struct {
	Name string
	Kind FieldKind

	// Bits is the width of a FieldUint field (1..64).
	Bits int

	// Length discipline for FieldBytes fields.
	LenKind  LenKind
	LenBytes int       // LenFixed
	LenField string    // LenField: name of the preceding uint field
	LenExpr  expr.Expr // LenExpr

	// Compute marks the field as computed. Only FieldUint fields may be
	// computed.
	Compute *Compute
}

// Type returns the expression-language type of the field's value.
func (f *Field) Type() expr.Type {
	if f.Kind == FieldUint {
		return expr.TUint(f.Bits)
	}
	return expr.TBytes
}

// Message is a complete on-the-wire message layout.
type Message struct {
	Name   string
	Doc    string
	Fields []Field
}

// Field returns the named field, if present.
func (m *Message) Field(name string) (*Field, bool) {
	for i := range m.Fields {
		if m.Fields[i].Name == name {
			return &m.Fields[i], true
		}
	}
	return nil, false
}

// FieldTypes returns the expression types of all fields, for use as a
// typing environment.
func (m *Message) FieldTypes() map[string]expr.Type {
	out := make(map[string]expr.Type, len(m.Fields))
	for i := range m.Fields {
		out[m.Fields[i].Name] = m.Fields[i].Type()
	}
	return out
}

// plainEnv is the typing environment available to computed-field and
// length expressions: every *plain* (non-computed) field of the message.
type plainEnv struct{ m *Message }

var _ expr.Env = plainEnv{}

func (e plainEnv) VarType(name string) (expr.Type, bool) {
	f, ok := e.m.Field(name)
	if !ok || f.Compute != nil {
		return expr.Type{}, false
	}
	return f.Type(), true
}

func (e plainEnv) FieldType(_, _ string) (expr.Type, bool) { return expr.Type{}, false }

// DefinitionError reports an invalid message definition.
type DefinitionError struct {
	Message string // message name
	Field   string // field name ("" for message-level problems)
	Msg     string
}

// Error implements error.
func (e *DefinitionError) Error() string {
	if e.Field == "" {
		return fmt.Sprintf("message %s: %s", e.Message, e.Msg)
	}
	return fmt.Sprintf("message %s: field %s: %s", e.Message, e.Field, e.Msg)
}

func defErrf(msg, field, format string, args ...any) error {
	return &DefinitionError{Message: msg, Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Layout is a compiled, validated message definition ready for encoding
// and decoding. Obtain one with Compile.
type Layout struct {
	msg *Message
	// fixedBitOff[i] is the bit offset of field i if it is at a fixed
	// offset from the start of the message, else -1.
	fixedBitOff []int
	// fixedPrefixBits is the size of the fixed-size prefix in bits
	// (everything before the first variable-length field).
	fixedPrefixBits int
	// hasVariable reports whether any field has variable length.
	hasVariable bool
	// prog is the slot-compiled program (built eagerly by Compile).
	prog *Program
}

// Program returns the layout's slot-compiled program: the hot-path codec
// over expr.Frame field slots (see program.go). It is built once at
// Compile time and shareable across goroutines.
func (l *Layout) Program() *Program { return l.prog }

// Message returns the underlying message definition.
func (l *Layout) Message() *Message { return l.msg }

// FixedSize returns the total size in bytes if the message has a fixed
// size, and ok=false otherwise.
func (l *Layout) FixedSize() (size int, ok bool) {
	if l.hasVariable {
		return 0, false
	}
	return l.fixedPrefixBits / 8, true
}

// FieldOffset returns the fixed bit offset of the named field, or ok=false
// if the field does not exist or sits after a variable-length field.
func (l *Layout) FieldOffset(name string) (bitOff int, ok bool) {
	for i := range l.msg.Fields {
		if l.msg.Fields[i].Name == name {
			if l.fixedBitOff[i] < 0 {
				return 0, false
			}
			return l.fixedBitOff[i], true
		}
	}
	return 0, false
}

// Compile validates a message definition and returns its layout.
//
// The checks are the wire-level half of the paper's "correct by
// construction" discipline: a definition that compiles cannot produce
// ambiguous or misaligned encodings.
func Compile(m *Message) (*Layout, error) {
	if m.Name == "" {
		return nil, defErrf("(unnamed)", "", "message must have a name")
	}
	if len(m.Fields) == 0 {
		return nil, defErrf(m.Name, "", "message must have at least one field")
	}
	seen := make(map[string]bool, len(m.Fields))
	layout := &Layout{msg: m, fixedBitOff: make([]int, len(m.Fields))}
	bitOff := 0
	variableSeen := false

	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Name == "" {
			return nil, defErrf(m.Name, "", "field %d has no name", i)
		}
		if seen[f.Name] {
			return nil, defErrf(m.Name, f.Name, "duplicate field name")
		}
		seen[f.Name] = true

		if variableSeen {
			layout.fixedBitOff[i] = -1
		} else {
			layout.fixedBitOff[i] = bitOff
		}

		switch f.Kind {
		case FieldUint:
			if f.Bits < 1 || f.Bits > 64 {
				return nil, defErrf(m.Name, f.Name, "uint width %d out of range 1..64", f.Bits)
			}
			if !variableSeen {
				bitOff += f.Bits
			}
		case FieldBytes:
			if f.Compute != nil {
				return nil, defErrf(m.Name, f.Name, "bytes fields cannot be computed")
			}
			if !variableSeen && bitOff%8 != 0 {
				return nil, defErrf(m.Name, f.Name, "bytes field starts at bit %d: not byte-aligned", bitOff)
			}
			if err := checkLenDiscipline(m, i, f); err != nil {
				return nil, err
			}
			switch f.LenKind {
			case LenFixed:
				if !variableSeen {
					bitOff += 8 * f.LenBytes
				}
			default:
				variableSeen = true
			}
		default:
			return nil, defErrf(m.Name, f.Name, "invalid field kind")
		}

		if err := checkCompute(m, f); err != nil {
			return nil, err
		}
	}

	if !variableSeen && bitOff%8 != 0 {
		return nil, defErrf(m.Name, "", "total fixed size is %d bits: not a whole number of bytes", bitOff)
	}
	// The bit run between any variable-length field boundary must also be
	// byte aligned; verify by walking suffix runs.
	if err := checkSuffixAlignment(m); err != nil {
		return nil, err
	}

	// Checksum fields must sit at fixed, byte-aligned offsets so the
	// encoder can patch them after serialisation.
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Compute == nil || f.Compute.Kind != ComputeChecksum {
			continue
		}
		off := layout.fixedBitOff[i]
		if off < 0 {
			return nil, defErrf(m.Name, f.Name, "checksum field must be at a fixed offset")
		}
		if off%8 != 0 {
			return nil, defErrf(m.Name, f.Name, "checksum field must be byte-aligned (at bit %d)", off)
		}
	}

	layout.hasVariable = variableSeen
	if variableSeen {
		// fixed prefix ends at the first variable field
		layout.fixedPrefixBits = firstVariableOffset(layout)
	} else {
		layout.fixedPrefixBits = bitOff
	}
	layout.prog = newProgram(layout)
	return layout, nil
}

func firstVariableOffset(l *Layout) int {
	for i := range l.msg.Fields {
		f := &l.msg.Fields[i]
		if f.Kind == FieldBytes && f.LenKind != LenFixed {
			return l.fixedBitOff[i]
		}
	}
	return 0
}

func checkLenDiscipline(m *Message, idx int, f *Field) error {
	switch f.LenKind {
	case LenFixed:
		if f.LenBytes < 0 {
			return defErrf(m.Name, f.Name, "negative fixed length %d", f.LenBytes)
		}
	case LenField:
		found := false
		for j := 0; j < idx; j++ {
			if m.Fields[j].Name == f.LenField {
				if m.Fields[j].Kind != FieldUint {
					return defErrf(m.Name, f.Name, "length field %q is not a uint", f.LenField)
				}
				found = true
				break
			}
		}
		if !found {
			return defErrf(m.Name, f.Name, "length field %q not found before this field", f.LenField)
		}
	case LenExpr:
		if f.LenExpr == nil {
			return defErrf(m.Name, f.Name, "LenExpr requires an expression")
		}
		t, err := expr.Check(f.LenExpr, prefixEnv{m: m, before: idx})
		if err != nil {
			return defErrf(m.Name, f.Name, "length expression: %v", err)
		}
		if t.Kind != expr.KindUint {
			return defErrf(m.Name, f.Name, "length expression must be uint, got %s", t)
		}
	case LenRest:
		if idx != len(m.Fields)-1 {
			return defErrf(m.Name, f.Name, "LenRest is only valid for the final field")
		}
	default:
		return defErrf(m.Name, f.Name, "bytes field needs a length discipline")
	}
	return nil
}

// prefixEnv exposes only the fields strictly before index `before`,
// ensuring length expressions depend only on already-decoded data.
type prefixEnv struct {
	m      *Message
	before int
}

var _ expr.Env = prefixEnv{}

func (e prefixEnv) VarType(name string) (expr.Type, bool) {
	for j := 0; j < e.before; j++ {
		if e.m.Fields[j].Name == name {
			return e.m.Fields[j].Type(), true
		}
	}
	return expr.Type{}, false
}

func (e prefixEnv) FieldType(_, _ string) (expr.Type, bool) { return expr.Type{}, false }

func checkCompute(m *Message, f *Field) error {
	if f.Compute == nil {
		return nil
	}
	switch f.Compute.Kind {
	case ComputeExpr:
		if f.Compute.Expr == nil {
			return defErrf(m.Name, f.Name, "computed field requires an expression")
		}
		t, err := expr.Check(f.Compute.Expr, plainEnv{m: m})
		if err != nil {
			return defErrf(m.Name, f.Name, "computed expression: %v", err)
		}
		if !f.Type().AssignableFrom(t) {
			return defErrf(m.Name, f.Name, "computed expression has type %s, field is %s", t, f.Type())
		}
	case ComputeChecksum:
		want := f.Compute.Algo.bits()
		if want == 0 {
			return defErrf(m.Name, f.Name, "unknown checksum algorithm")
		}
		if f.Bits != want {
			return defErrf(m.Name, f.Name, "checksum %s needs a %d-bit field, got %d bits",
				f.Compute.Algo, want, f.Bits)
		}
	default:
		return defErrf(m.Name, f.Name, "invalid compute kind")
	}
	return nil
}

// checkSuffixAlignment verifies that every maximal run of uint fields
// between byte-aligned boundaries is a whole number of bytes, so decoding
// after a variable-length field stays byte-aligned.
func checkSuffixAlignment(m *Message) error {
	run := 0
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Kind == FieldUint {
			run += f.Bits
			continue
		}
		if run%8 != 0 {
			return defErrf(m.Name, f.Name, "preceding bit fields total %d bits: not byte-aligned", run)
		}
		run = 0
	}
	if run%8 != 0 {
		return defErrf(m.Name, "", "trailing bit fields total %d bits: not byte-aligned", run)
	}
	return nil
}
