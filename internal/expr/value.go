// Package expr implements the total expression language shared by the
// protocol DSL: field computations, transition guards and variable
// assignments are all written in it.
//
// The language is total by construction — it has no loops, no recursion and
// no user-defined functions — so every expression evaluates in bounded time.
// This mirrors the totality requirement the paper places on its
// dependently-typed host language (§3.1: "We require programs to be total").
//
// Unsigned integers carry an explicit bit width (8, 16, 32 or 64) and
// arithmetic wraps at the promoted width, so `seq + 1` over an 8-bit
// sequence number wraps from 255 to 0 exactly as the paper's `Byte`
// arithmetic does.
//
// Concurrency: parsed expressions and compiled closures are immutable
// and safe for concurrent evaluation; a Frame is single-owner scratch —
// one goroutine per Frame.
package expr

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unsafe"
)

// Kind enumerates the runtime kinds of values.
type Kind uint8

// Value kinds. KindInvalid is deliberately the zero value so that
// uninitialised values are detectably invalid.
const (
	KindInvalid Kind = iota
	KindBool
	KindUint
	KindBytes
	KindString
	KindMsg
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindBool:
		return "bool"
	case KindUint:
		return "uint"
	case KindBytes:
		return "bytes"
	case KindString:
		return "string"
	case KindMsg:
		return "message"
	default:
		return "invalid"
	}
}

// Value is a runtime value of the expression language.
//
// The zero value is invalid; construct values with the Bool, Uint, Bytes,
// Str and Msg helpers.
//
// A Value is 32 bytes (DESIGN.md §3), because compiled closures, frames
// and the model checker copy it by value on every operand:
//
//	kind     u                 p                  q
//	bool     0 or 1            -                  -
//	uint     the number        -                  -
//	bytes    length            data               -
//	string   length            data               -
//	message  -                 *MsgShape          *Frame
//
// bits holds a uint's width. Bytes, strings and messages alias the
// memory they were built from; see BytesView, Str and FrameMsg.
type Value struct {
	_    [0]func() // not comparable: == would compare p and q by identity, not by content
	u    uint64
	p    unsafe.Pointer
	q    unsafe.Pointer
	kind Kind
	bits uint8
}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var u uint64
	if b {
		u = 1
	}
	return Value{kind: KindBool, u: u}
}

// Uint returns an unsigned integer value of the given bit width
// (8, 16, 32 or 64). The value is truncated to the width.
func Uint(v uint64, bits int) Value {
	return uintValue(v, uint8(normBits(bits)))
}

// uintValue builds a uint value whose width is already normalised.
func uintValue(v uint64, bits uint8) Value {
	return Value{kind: KindUint, u: v & widthMask(bits), bits: bits}
}

// U8 returns an 8-bit unsigned value.
func U8(v uint64) Value { return Uint(v, 8) }

// U16 returns a 16-bit unsigned value.
func U16(v uint64) Value { return Uint(v, 16) }

// U32 returns a 32-bit unsigned value.
func U32(v uint64) Value { return Uint(v, 32) }

// Bytes returns a byte-slice value. The slice is copied so later caller
// mutations cannot alias into the value.
func Bytes(b []byte) Value {
	cp := make([]byte, len(b))
	copy(cp, b)
	return BytesView(cp)
}

// BytesView returns a byte-slice value that aliases b without copying.
// It is the allocation-free construction path for hot loops (compiled
// execution, AppendEncode/DecodeInto): the caller must not mutate b while
// the value is live. The value keeps b's data and length, not its
// capacity, so appending to RawBytes never writes into b's spare room.
func BytesView(b []byte) Value {
	return Value{kind: KindBytes, u: uint64(len(b)), p: unsafe.Pointer(unsafe.SliceData(b))}
}

// Str returns a string value. It aliases the string's (immutable) data.
func Str(s string) Value {
	return Value{kind: KindString, u: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// Msg returns a message value with the given type name and fields. The
// fields are copied into a fresh frame laid out by the shared shape over
// their sorted names; an invalid field value reads as a missing field.
func Msg(name string, fields map[string]Value) Value {
	var buf [8]string
	shape := msgShape(name, slices.AppendSeq(buf[:0], maps.Keys(fields)))
	f := NewFrame(shape.NumFields())
	for i, k := range shape.names {
		f.slots[i] = fields[k]
	}
	return FrameMsg(shape, f)
}

// msgShapes caches Msg's shapes by message name and sorted field names.
// Shapes are immutable, so every message of one name and field set
// shares one; the cache holds one entry per such pair a program builds.
var msgShapes = struct {
	sync.Mutex
	m map[string]*MsgShape
}{m: make(map[string]*MsgShape)}

// msgShape returns the shared shape of the named message over the given
// field names, which it sorts in place.
func msgShape(name string, fields []string) *MsgShape {
	slices.Sort(fields)
	var buf [128]byte
	key := append(buf[:0], name...)
	for _, f := range fields {
		key = append(append(key, 0), f...)
	}
	msgShapes.Lock()
	defer msgShapes.Unlock()
	s := msgShapes.m[string(key)]
	if s == nil {
		s = NewMsgShape(name, fields)
		msgShapes.m[string(key)] = s
	}
	return s
}

// Kind reports the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value has been initialised.
func (v Value) IsValid() bool { return v.kind != KindInvalid }

// AsBool returns the boolean payload. It must only be called when
// Kind() == KindBool; other kinds read as false.
func (v Value) AsBool() bool { return v.kind == KindBool && v.u != 0 }

// AsUint returns the unsigned integer payload (0 for other kinds).
func (v Value) AsUint() uint64 {
	if v.kind != KindUint {
		return 0
	}
	return v.u
}

// Bits returns the bit width of an unsigned integer value (0 for other
// kinds).
func (v Value) Bits() int {
	if v.kind != KindUint {
		return 0
	}
	return int(v.bits)
}

// AsBytes returns the byte payload. The returned slice is a copy.
func (v Value) AsBytes() []byte {
	raw := v.RawBytes()
	cp := make([]byte, len(raw))
	copy(cp, raw)
	return cp
}

// RawBytes returns the byte payload without copying (nil for other
// kinds). Callers must not mutate the result. Its capacity equals its
// length, so an append to it always copies.
func (v Value) RawBytes() []byte {
	if v.kind != KindBytes {
		return nil
	}
	return unsafe.Slice((*byte)(v.p), v.u)
}

// AsString returns the string payload ("" for other kinds).
func (v Value) AsString() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), v.u)
}

// MsgName returns the message type name of a message value ("" for
// other kinds).
func (v Value) MsgName() string {
	if v.kind != KindMsg {
		return ""
	}
	return (*MsgShape)(v.p).name
}

// Field returns the named field of a message value.
func (v Value) Field(name string) (Value, bool) {
	return v.fieldByName(name)
}

// MsgFields returns a copy of the present fields of a message value (an
// empty map for other kinds).
func (v Value) MsgFields() map[string]Value {
	if v.kind != KindMsg {
		return map[string]Value{}
	}
	shape, fr := (*MsgShape)(v.p), (*Frame)(v.q)
	cp := make(map[string]Value, len(shape.names))
	for i, name := range shape.names {
		if fv := fr.slots[i]; fv.kind != KindInvalid {
			cp[name] = fv
		}
	}
	return cp
}

// WithBits returns a copy of an unsigned value truncated to the given
// bit width. For other kinds it returns the value unchanged.
func (v Value) WithBits(bits int) Value {
	if v.kind != KindUint {
		return v
	}
	return Uint(v.u, bits)
}

// Equal reports deep structural equality of two values.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindBool, KindUint:
		return v.u == o.u
	case KindBytes:
		return string(v.RawBytes()) == string(o.RawBytes())
	case KindString:
		return v.AsString() == o.AsString()
	case KindMsg:
		if v.MsgName() != o.MsgName() || v.numMsgFields() != o.numMsgFields() {
			return false
		}
		for _, k := range v.msgFieldNames() {
			fv, ok := v.fieldByName(k)
			if !ok {
				continue // an unset slot: the field is absent
			}
			ov, ok := o.fieldByName(k)
			if !ok || !fv.Equal(ov) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindBool:
		return strconv.FormatBool(v.u != 0)
	case KindUint:
		return fmt.Sprintf("%d:u%d", v.u, v.bits)
	case KindBytes:
		return fmt.Sprintf("0x%x", v.RawBytes())
	case KindString:
		return strconv.Quote(v.AsString())
	case KindMsg:
		var sb strings.Builder
		sb.WriteString(v.MsgName())
		sb.WriteString("{")
		first := true
		for _, k := range v.msgFieldNames() {
			fv, ok := v.fieldByName(k)
			if !ok {
				continue
			}
			if !first {
				sb.WriteString(", ")
			}
			first = false
			sb.WriteString(k)
			sb.WriteString(": ")
			sb.WriteString(fv.String())
		}
		sb.WriteString("}")
		return sb.String()
	default:
		return "<invalid>"
	}
}

// HashKey returns a deterministic string usable as a map key for state
// hashing (used by the model checker). It is injective for the value
// domain used by protocol specs. Unsigned keys include the bit width:
// width decides where arithmetic wraps, so a u8 and a u16 holding the
// same number are behaviourally distinct states and must not be merged.
func (v Value) HashKey() string {
	switch v.kind {
	case KindBool:
		if v.u != 0 {
			return "b1"
		}
		return "b0"
	case KindUint:
		return "u" + strconv.FormatUint(v.u, 16) + "w" + strconv.Itoa(int(v.bits))
	case KindBytes:
		return "y" + string(v.RawBytes())
	case KindString:
		return "s" + v.AsString()
	case KindMsg:
		var sb strings.Builder
		sb.WriteString("m")
		sb.WriteString(v.MsgName())
		for _, k := range v.msgFieldNames() {
			fv, ok := v.fieldByName(k)
			if !ok {
				continue
			}
			sb.WriteString("|")
			sb.WriteString(k)
			sb.WriteString("=")
			sb.WriteString(fv.HashKey())
		}
		return sb.String()
	default:
		return "?"
	}
}

func normBits(bits int) int {
	switch {
	case bits <= 8:
		return 8
	case bits <= 16:
		return 16
	case bits <= 32:
		return 32
	default:
		return 64
	}
}

func truncate(v uint64, bits int) uint64 {
	return v & widthMask(uint8(normBits(bits)))
}

// widthMask returns the mask of a normalised width (8, 16, 32 or 64).
func widthMask(bits uint8) uint64 { return ^uint64(0) >> (64 - bits) }

// FitBits returns the smallest normalised width (8, 16, 32, 64) that can
// represent v. Integer literals adopt this width so byte arithmetic wraps
// naturally (255 + 1 == 0 at width 8).
func FitBits(v uint64) int {
	switch {
	case v <= 0xFF:
		return 8
	case v <= 0xFFFF:
		return 16
	case v <= 0xFFFFFFFF:
		return 32
	default:
		return 64
	}
}
