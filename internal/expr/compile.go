package expr

import (
	"fmt"
	"unsafe"
)

// This file implements the compiled execution engine for the expression
// language. Compile lowers a (checked) expression AST into a tree of Go
// closures over a slot-indexed Frame, eliminating the per-eval costs of
// the tree-walking Eval path: no interface type switches, no
// map[string]Value scope lookups and no allocations on the success path.
// Compiled expressions have semantics identical to Eval — the same
// values, the same wrapping arithmetic and the same errors (division by
// zero, undefined variable) — which the differential tests in
// internal/dsl assert expression by expression.

// ScopeLayout assigns frame slot indices to variable names. A layout is
// built once per scope shape (e.g. a machine's variables plus an event's
// parameters) and shared by every expression compiled against it.
type ScopeLayout struct {
	slots  map[string]int
	shapes map[string]*MsgShape
	size   int
}

// NewScopeLayout returns an empty layout.
func NewScopeLayout() *ScopeLayout {
	return &ScopeLayout{slots: make(map[string]int)}
}

// Add binds name to the next free slot and returns its index. Adding a
// name twice returns the existing slot.
func (l *ScopeLayout) Add(name string) int {
	if s, ok := l.slots[name]; ok {
		return s
	}
	s := l.size
	l.slots[name] = s
	l.size++
	return s
}

// Bind maps name to an explicit slot, growing the frame if needed. It is
// used for shadowing: an event parameter that shares a machine variable's
// name is bound over it at a fresh slot in a cloned layout.
func (l *ScopeLayout) Bind(name string, slot int) {
	l.slots[name] = slot
	if slot >= l.size {
		l.size = slot + 1
	}
}

// Slot returns the slot bound to name.
func (l *ScopeLayout) Slot(name string) (int, bool) {
	s, ok := l.slots[name]
	return s, ok
}

// SetShape declares that the variable bound to name holds slot-backed
// messages of the given shape at runtime. Compiled field accesses on that
// variable then resolve the field slot at compile time and read it by
// integer index when the runtime value carries the same shape; values of
// any other representation fall back to the generic (observationally
// identical) path. The declaration is an optimisation hint only — it
// never changes semantics.
func (l *ScopeLayout) SetShape(name string, shape *MsgShape) {
	if l.shapes == nil {
		l.shapes = make(map[string]*MsgShape)
	}
	l.shapes[name] = shape
}

// ShapeOf returns the shape declared for name, if any.
func (l *ScopeLayout) ShapeOf(name string) *MsgShape { return l.shapes[name] }

// Clone returns an independent copy of the layout.
func (l *ScopeLayout) Clone() *ScopeLayout {
	cp := &ScopeLayout{slots: make(map[string]int, len(l.slots)), size: l.size}
	for k, v := range l.slots {
		cp.slots[k] = v
	}
	if l.shapes != nil {
		cp.shapes = make(map[string]*MsgShape, len(l.shapes))
		for k, v := range l.shapes {
			cp.shapes[k] = v
		}
	}
	return cp
}

// NewFrame allocates a frame sized for the layout.
func (l *ScopeLayout) NewFrame() *Frame {
	return &Frame{slots: make([]Value, l.size)}
}

// NewFrame allocates a frame with n slots (all unset).
func NewFrame(n int) *Frame {
	return &Frame{slots: make([]Value, n)}
}

// Frame holds the runtime values of a scope in layout order. Unset slots
// hold the invalid zero Value and read as undefined variables, matching
// Eval over a scope that lacks the name.
type Frame struct {
	slots []Value
}

// Set stores v in the given slot.
func (f *Frame) Set(slot int, v Value) { f.slots[slot] = v }

// Get returns the value in the given slot.
func (f *Frame) Get(slot int) Value { return f.slots[slot] }

// Len returns the frame's slot count.
func (f *Frame) Len() int { return len(f.slots) }

// Compiled is a compiled expression: call it with a frame laid out by the
// ScopeLayout it was compiled against.
type Compiled func(*Frame) (Value, error)

// Compile lowers the expression to a closure over layout-indexed frames.
// Compilation never fails: names absent from the layout (and unknown
// builtins) compile to closures that reproduce Eval's runtime errors, so
// compiled and tree-walking execution are observationally identical.
func Compile(e Expr, layout *ScopeLayout) Compiled {
	switch n := e.(type) {
	case *Lit:
		v := n.Val
		return func(*Frame) (Value, error) { return v, nil }
	case *Ident:
		slot, ok := layout.Slot(n.Name)
		if !ok {
			return errClosure(n.Offset, fmt.Errorf("undefined variable %q", n.Name))
		}
		name, off := n.Name, n.Offset
		return func(f *Frame) (Value, error) {
			v := f.slots[slot]
			if v.kind == KindInvalid {
				return Value{}, evalErrf(off, fmt.Errorf("undefined variable %q", name))
			}
			return v, nil
		}
	case *FieldAccess:
		// Peephole fusion: `ident.field` — the shape of every message
		// guard (`ack.seq == seq`) — loads the slot and the field in one
		// closure, with no inner closure call. When the layout declares a
		// message shape for the ident, the field slot is resolved here at
		// compile time and the runtime read is a pair of integer indexes —
		// no string is hashed on the hot path.
		if id, ok := n.X.(*Ident); ok {
			if slot, ok := layout.Slot(id.Name); ok {
				name, off := n.Name, n.Offset
				idName, idOff := id.Name, id.Offset
				if shape := layout.ShapeOf(id.Name); shape != nil {
					if fslot, ok := shape.Slot(name); ok {
						return func(f *Frame) (Value, error) {
							xv := f.slots[slot]
							if xv.p == unsafe.Pointer(shape) {
								if fv := (*Frame)(xv.q).slots[fslot]; fv.kind != KindInvalid {
									return fv, nil
								}
								return Value{}, evalErrf(off, fmt.Errorf("message %s has no field %q", shape.name, name))
							}
							return fieldAccessSlow(xv, name, idName, off, idOff)
						}
					}
				}
				return func(f *Frame) (Value, error) {
					return fieldAccessSlow(f.slots[slot], name, idName, off, idOff)
				}
			}
		}
		x := Compile(n.X, layout)
		name, off := n.Name, n.Offset
		return func(f *Frame) (Value, error) {
			xv, err := x(f)
			if err != nil {
				return Value{}, err
			}
			if xv.kind != KindMsg {
				return Value{}, evalErrf(off, fmt.Errorf("field access on %s value", xv.Kind()))
			}
			fv, ok := xv.fieldByName(name)
			if !ok {
				return Value{}, evalErrf(off, fmt.Errorf("message %s has no field %q", xv.MsgName(), name))
			}
			return fv, nil
		}
	case *Unary:
		return compileUnary(n, layout)
	case *Binary:
		return compileBinary(n, layout)
	case *Call:
		return compileCall(n, layout)
	default:
		return errClosure(e.Pos(), fmt.Errorf("unknown expression node %T", e))
	}
}

// CompileBool compiles an expression expected to produce a boolean,
// mirroring EvalBool. The short-circuit operators compose here as bool
// closures, so a guard chain `a && b && c` builds no intermediate
// Values; like evalBinary's use of EvalBool, each operand's own
// position is its error offset.
func CompileBool(e Expr, layout *ScopeLayout) func(*Frame) (bool, error) {
	if n, ok := e.(*Binary); ok && (n.Op == OpAnd || n.Op == OpOr) {
		x := CompileBool(n.X, layout)
		y := CompileBool(n.Y, layout)
		if n.Op == OpAnd {
			return func(f *Frame) (bool, error) {
				xb, err := x(f)
				if err != nil || !xb {
					return false, err
				}
				return y(f)
			}
		}
		return func(f *Frame) (bool, error) {
			xb, err := x(f)
			if err != nil {
				return false, err
			}
			if xb {
				return true, nil
			}
			return y(f)
		}
	}
	c := Compile(e, layout)
	pos := e.Pos()
	return func(f *Frame) (bool, error) {
		v, err := c(f)
		if err != nil {
			return false, err
		}
		if v.kind != KindBool {
			return false, evalErrf(pos, fmt.Errorf("expected bool result, got %s", v.Kind()))
		}
		return v.u != 0, nil
	}
}

// fieldAccessSlow is the generic `ident.field` read shared by the fused
// field-access closures: it handles messages of a different shape than
// the compile-time declaration and the error cases, reproducing Eval's
// behaviour exactly.
func fieldAccessSlow(xv Value, name, idName string, off, idOff int) (Value, error) {
	if xv.kind == KindMsg {
		if fv, ok := xv.fieldByName(name); ok {
			return fv, nil
		}
		return Value{}, evalErrf(off, fmt.Errorf("message %s has no field %q", xv.MsgName(), name))
	}
	if xv.kind == KindInvalid {
		return Value{}, evalErrf(idOff, fmt.Errorf("undefined variable %q", idName))
	}
	return Value{}, evalErrf(off, fmt.Errorf("field access on %s value", xv.Kind()))
}

func errClosure(pos int, err error) Compiled {
	wrapped := evalErrf(pos, err)
	return func(*Frame) (Value, error) { return Value{}, wrapped }
}

func compileUnary(n *Unary, layout *ScopeLayout) Compiled {
	x := Compile(n.X, layout)
	off := n.Offset
	switch n.Op {
	case OpNot:
		return func(f *Frame) (Value, error) {
			xv, err := x(f)
			if err != nil {
				return Value{}, err
			}
			if xv.kind != KindBool {
				return Value{}, evalErrf(off, fmt.Errorf("! requires bool, got %s", xv.Kind()))
			}
			return Bool(xv.u == 0), nil
		}
	case OpNeg:
		return func(f *Frame) (Value, error) {
			xv, err := x(f)
			if err != nil {
				return Value{}, err
			}
			if xv.kind != KindUint {
				return Value{}, evalErrf(off, fmt.Errorf("- requires uint, got %s", xv.Kind()))
			}
			return uintValue(-xv.u, xv.bits), nil
		}
	default:
		op := n.Op
		return errClosure(off, fmt.Errorf("invalid unary op %s", op))
	}
}

func compileBinary(n *Binary, layout *ScopeLayout) Compiled {
	// Whole-expression fusions for the two shapes that dominate protocol
	// hot paths — `msg.field ==/!= var` (sequence-number guards) and
	// `var op literal` (counter updates). Both compile to a single
	// closure with no inner closure calls.
	if c := fuseFieldVarCompare(n, layout); c != nil {
		return c
	}
	if c := fuseVarLitArith(n, layout); c != nil {
		return c
	}

	// The short-circuit operators live in CompileBool; lift its result.
	if n.Op == OpAnd || n.Op == OpOr {
		b := CompileBool(n, layout)
		return func(f *Frame) (Value, error) {
			v, err := b(f)
			if err != nil {
				return Value{}, err
			}
			return Bool(v), nil
		}
	}

	x := Compile(n.X, layout)
	y := Compile(n.Y, layout)
	off := n.Offset

	switch n.Op {
	case OpEq:
		return func(f *Frame) (Value, error) {
			xv, err := x(f)
			if err != nil {
				return Value{}, err
			}
			yv, err := y(f)
			if err != nil {
				return Value{}, err
			}
			return Bool(equalValues(xv, yv)), nil
		}
	case OpNe:
		return func(f *Frame) (Value, error) {
			xv, err := x(f)
			if err != nil {
				return Value{}, err
			}
			yv, err := y(f)
			if err != nil {
				return Value{}, err
			}
			return Bool(!equalValues(xv, yv)), nil
		}
	}

	op := n.Op
	return func(f *Frame) (Value, error) {
		xv, err := x(f)
		if err != nil {
			return Value{}, err
		}
		yv, err := y(f)
		if err != nil {
			return Value{}, err
		}
		if xv.kind != KindUint || yv.kind != KindUint {
			return Value{}, evalErrf(off, fmt.Errorf("operator %s requires uints, got %s and %s", op, xv.Kind(), yv.Kind()))
		}
		a, b := xv.u, yv.u
		bits := xv.bits
		if yv.bits > bits {
			bits = yv.bits
		}
		switch op {
		case OpLt:
			return Bool(a < b), nil
		case OpLe:
			return Bool(a <= b), nil
		case OpGt:
			return Bool(a > b), nil
		case OpGe:
			return Bool(a >= b), nil
		case OpAdd:
			return uintValue(a+b, bits), nil
		case OpSub:
			return uintValue(a-b, bits), nil
		case OpMul:
			return uintValue(a*b, bits), nil
		case OpDiv:
			if b == 0 {
				return Value{}, evalErrf(off, ErrDivisionByZero)
			}
			return uintValue(a/b, bits), nil
		case OpMod:
			if b == 0 {
				return Value{}, evalErrf(off, ErrDivisionByZero)
			}
			return uintValue(a%b, bits), nil
		case OpBitAnd:
			return uintValue(a&b, bits), nil
		case OpBitOr:
			return uintValue(a|b, bits), nil
		case OpBitXor:
			return uintValue(a^b, bits), nil
		case OpShl:
			if b >= 64 {
				return uintValue(0, xv.bits), nil
			}
			return uintValue(a<<b, xv.bits), nil
		case OpShr:
			if b >= 64 {
				return uintValue(0, xv.bits), nil
			}
			return uintValue(a>>b, xv.bits), nil
		default:
			return Value{}, evalErrf(off, fmt.Errorf("invalid binary op %s", op))
		}
	}
}

// fuseFieldVarCompare fuses `ident.field ==/!= ident` (e.g. the ARQ
// guards `ack.seq == seq`, `p.seq != seq`) into one closure. Returns nil
// when the expression has a different shape. Error cases reproduce the
// generic path exactly: X's errors first, then Y's.
func fuseFieldVarCompare(n *Binary, layout *ScopeLayout) Compiled {
	if n.Op != OpEq && n.Op != OpNe {
		return nil
	}
	fa, ok := n.X.(*FieldAccess)
	if !ok {
		return nil
	}
	faID, ok := fa.X.(*Ident)
	if !ok {
		return nil
	}
	yID, ok := n.Y.(*Ident)
	if !ok {
		return nil
	}
	xSlot, okX := layout.Slot(faID.Name)
	ySlot, okY := layout.Slot(yID.Name)
	if !okX || !okY {
		return nil
	}
	field, faOff := fa.Name, fa.Offset
	xName, xOff := faID.Name, faID.Offset
	yName, yOff := yID.Name, yID.Offset
	negate := n.Op == OpNe
	slow := func(f *Frame) (Value, error) {
		xv := f.slots[xSlot]
		if xv.kind != KindMsg {
			if xv.kind == KindInvalid {
				return Value{}, evalErrf(xOff, fmt.Errorf("undefined variable %q", xName))
			}
			return Value{}, evalErrf(faOff, fmt.Errorf("field access on %s value", xv.Kind()))
		}
		fv, ok := xv.fieldByName(field)
		if !ok {
			return Value{}, evalErrf(faOff, fmt.Errorf("message %s has no field %q", xv.MsgName(), field))
		}
		yv := f.slots[ySlot]
		if yv.kind == KindInvalid {
			return Value{}, evalErrf(yOff, fmt.Errorf("undefined variable %q", yName))
		}
		var eq bool
		if fv.kind == KindUint && yv.kind == KindUint {
			eq = fv.u == yv.u
		} else {
			eq = fv.Equal(yv)
		}
		return Bool(eq != negate), nil
	}
	// Shape fast path: when the layout declares the message shape of the
	// accessed ident, the entire guard is three integer-indexed loads and
	// one compare at runtime.
	if shape := layout.ShapeOf(faID.Name); shape != nil {
		if fslot, ok := shape.Slot(field); ok {
			return func(f *Frame) (Value, error) {
				xv := f.slots[xSlot]
				if xv.p == unsafe.Pointer(shape) {
					fv := (*Frame)(xv.q).slots[fslot]
					yv := f.slots[ySlot]
					if fv.kind == KindUint && yv.kind == KindUint {
						return Bool((fv.u == yv.u) != negate), nil
					}
				}
				return slow(f)
			}
		}
	}
	return slow
}

// fuseVarLitArith fuses `ident op uint-literal` (e.g. the ARQ action
// `seq + 1`) into one closure. Returns nil when the shape or operator
// does not apply.
func fuseVarLitArith(n *Binary, layout *ScopeLayout) Compiled {
	switch n.Op {
	case OpAdd, OpSub, OpMul, OpBitAnd, OpBitOr, OpBitXor,
		OpLt, OpLe, OpGt, OpGe:
	default:
		return nil // div/mod/shifts keep the generic path (zero/width edge cases)
	}
	id, ok := n.X.(*Ident)
	if !ok {
		return nil
	}
	lit, ok := n.Y.(*Lit)
	if !ok || lit.Val.kind != KindUint {
		return nil
	}
	slot, ok := layout.Slot(id.Name)
	if !ok {
		return nil
	}
	b, litBits := lit.Val.u, lit.Val.bits
	name, idOff, off, op := id.Name, id.Offset, n.Offset, n.Op
	return func(f *Frame) (Value, error) {
		xv := f.slots[slot]
		if xv.kind != KindUint {
			if xv.kind == KindInvalid {
				return Value{}, evalErrf(idOff, fmt.Errorf("undefined variable %q", name))
			}
			return Value{}, evalErrf(off, fmt.Errorf("operator %s requires uints, got %s and %s", op, xv.Kind(), KindUint))
		}
		a := xv.u
		bits := xv.bits
		if litBits > bits {
			bits = litBits
		}
		switch op {
		case OpAdd:
			return uintValue(a+b, bits), nil
		case OpSub:
			return uintValue(a-b, bits), nil
		case OpMul:
			return uintValue(a*b, bits), nil
		case OpBitAnd:
			return uintValue(a&b, bits), nil
		case OpBitOr:
			return uintValue(a|b, bits), nil
		case OpBitXor:
			return uintValue(a^b, bits), nil
		case OpLt:
			return Bool(a < b), nil
		case OpLe:
			return Bool(a <= b), nil
		case OpGt:
			return Bool(a > b), nil
		default: // OpGe
			return Bool(a >= b), nil
		}
	}
}

func compileCall(n *Call, layout *ScopeLayout) Compiled {
	b, ok := LookupBuiltin(n.Func)
	if !ok {
		return errClosure(n.Offset, fmt.Errorf("unknown function %q", n.Func))
	}
	args := make([]Compiled, len(n.Args))
	for i, a := range n.Args {
		args[i] = Compile(a, layout)
	}
	eval := b.Eval
	off := n.Offset
	return func(f *Frame) (Value, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			v, err := a(f)
			if err != nil {
				return Value{}, err
			}
			vals[i] = v
		}
		v, err := eval(vals)
		if err != nil {
			return Value{}, evalErrf(off, err)
		}
		return v, nil
	}
}
