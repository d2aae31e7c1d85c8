package expr

import "unsafe"

// This file implements slot-backed message values: the expression-language
// view of a wire.Program frame. A MsgShape assigns each field of a message
// type a fixed slot (its wire-order field index), and FrameMsg wraps a
// Frame laid out by that shape as a KindMsg Value without copying.
//
// Together with ScopeLayout.SetShape, this is what keeps the per-packet
// hot path free of map lookups end to end: the wire codec decodes straight
// into frame slots, the decoded frame is handed to the machine as a
// FrameMsg, and compiled field accesses (`p.seq`) resolve to integer slot
// reads — no string is hashed between the delivery buffer and the guard.

// MsgShape maps the field names of one message type to frame slots. A
// shape is built once (per compiled wire program or machine program) and
// shared by every frame of that message; it is immutable after
// construction and safe for concurrent use.
type MsgShape struct {
	name        string
	names       []string // slot -> field name, in wire (declaration) order
	sortedNames []string // field names sorted, for deterministic rendering
	slots       map[string]int
}

// NewMsgShape builds a shape for the named message type with the given
// fields in wire order: field i lives at slot i.
func NewMsgShape(name string, fields []string) *MsgShape {
	s := &MsgShape{
		name:  name,
		names: append([]string(nil), fields...),
		slots: make(map[string]int, len(fields)),
	}
	for i, f := range s.names {
		s.slots[f] = i
	}
	s.sortedNames = append([]string(nil), s.names...)
	// insertion sort: field lists are tiny.
	for i := 1; i < len(s.sortedNames); i++ {
		for j := i; j > 0 && s.sortedNames[j] < s.sortedNames[j-1]; j-- {
			s.sortedNames[j], s.sortedNames[j-1] = s.sortedNames[j-1], s.sortedNames[j]
		}
	}
	return s
}

// Name returns the message type name.
func (s *MsgShape) Name() string { return s.name }

// NumFields returns the number of fields (the frame size the shape needs).
func (s *MsgShape) NumFields() int { return len(s.names) }

// Slot returns the slot of the named field.
func (s *MsgShape) Slot(name string) (int, bool) {
	slot, ok := s.slots[name]
	return slot, ok
}

// FieldName returns the name of the field at the given slot.
func (s *MsgShape) FieldName(slot int) string { return s.names[slot] }

// FrameMsg returns a message value whose fields live in the slots of f,
// laid out by shape, without copying. It is the slot-frame counterpart of
// MsgView: the caller must not mutate f while the value is live. A slot
// holding the invalid zero Value reads as a missing field, so a partially
// filled frame behaves like a map lacking those keys.
//
// The frame must be at least shape.NumFields() slots (a frame laid out
// by any canonical shape of the same message qualifies); a smaller frame
// is a caller bug and panics here rather than reading out of range at an
// arbitrary later field access.
func FrameMsg(shape *MsgShape, f *Frame) Value {
	if f.Len() < len(shape.names) {
		panic("expr: FrameMsg: frame smaller than shape")
	}
	return Value{kind: KindMsg, bits: msgSlots, p: unsafe.Pointer(shape), q: unsafe.Pointer(f)}
}

// SameLayout reports whether two shapes describe the same message type
// with identical fields in identical slots — the compatibility check for
// handing a frame filled under one shape to code compiled against the
// other. Engines assert it once at construction so definition drift
// between a machine's Spec.Messages and a wire program fails loudly.
func (s *MsgShape) SameLayout(o *MsgShape) bool {
	if o == nil || s.name != o.name || len(s.names) != len(o.names) {
		return false
	}
	for i := range s.names {
		if s.names[i] != o.names[i] {
			return false
		}
	}
	return true
}

// Shape returns the shape of a slot-backed message value (nil for
// map-backed messages and non-message values).
func (v Value) Shape() *MsgShape {
	if !v.slotBacked() {
		return nil
	}
	return (*MsgShape)(v.p)
}

// fieldByName resolves a field of a KindMsg value of either
// representation. Invalid slot values in a frame-backed message read as
// missing, mirroring a map without the key. Other kinds have no fields.
func (v Value) fieldByName(name string) (Value, bool) {
	if v.kind != KindMsg {
		return Value{}, false
	}
	if v.bits == msgSlots {
		slot, ok := (*MsgShape)(v.p).slots[name]
		if !ok {
			return Value{}, false
		}
		fv := (*Frame)(v.q).slots[slot]
		if fv.kind == KindInvalid {
			return Value{}, false
		}
		return fv, true
	}
	f, ok := v.fieldMap()[name]
	return f, ok
}

// msgFieldNames returns the field names of a KindMsg value sorted (both
// representations), for deterministic rendering and hashing.
func (v Value) msgFieldNames() []string {
	if v.slotBacked() {
		return (*MsgShape)(v.p).sortedNames
	}
	return sortedKeys(v.fieldMap())
}

// numMsgFields returns the number of present fields of a KindMsg value.
func (v Value) numMsgFields() int {
	if v.slotBacked() {
		fr := (*Frame)(v.q)
		n := 0
		for i := range (*MsgShape)(v.p).names {
			if fr.slots[i].kind != KindInvalid {
				n++
			}
		}
		return n
	}
	return len(v.fieldMap())
}
