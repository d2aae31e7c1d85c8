package expr

import (
	"errors"
	"testing"
)

func TestScopeLayoutBasics(t *testing.T) {
	l := NewScopeLayout()
	a := l.Add("a")
	b := l.Add("b")
	if a != 0 || b != 1 || l.Size() != 2 {
		t.Fatalf("slots a=%d b=%d size=%d", a, b, l.Size())
	}
	if again := l.Add("a"); again != a {
		t.Errorf("re-adding a moved it to slot %d", again)
	}
	cl := l.Clone()
	cl.Bind("a", 5) // shadow in the clone only
	if s, _ := cl.Slot("a"); s != 5 || cl.Size() != 6 {
		t.Errorf("clone bind: slot=%d size=%d", s, cl.Size())
	}
	if s, _ := l.Slot("a"); s != 0 {
		t.Errorf("original layout mutated by clone: slot=%d", s)
	}
}

func TestCompileShortCircuitParity(t *testing.T) {
	// `a || boom/0 == 1` must not evaluate the RHS when a is true — the
	// same laziness Eval has.
	e := MustParse("a || 1 / z == 1")
	l := NewScopeLayout()
	sa, sz := l.Add("a"), l.Add("z")
	f := l.NewFrame()
	f.Set(sa, Bool(true))
	f.Set(sz, U8(0))
	v, err := Compile(e, l)(f)
	if err != nil || !v.AsBool() {
		t.Fatalf("short-circuit or: v=%v err=%v", v, err)
	}
	// With a false, the RHS runs and divides by zero in both engines.
	f.Set(sa, Bool(false))
	_, cErr := Compile(e, l)(f)
	_, eErr := Eval(e, MapScope{"a": Bool(false), "z": U8(0)})
	if !errors.Is(cErr, ErrDivisionByZero) || !errors.Is(eErr, ErrDivisionByZero) {
		t.Fatalf("division errors: compiled=%v eval=%v", cErr, eErr)
	}
	if cErr.Error() != eErr.Error() {
		t.Fatalf("error text mismatch:\n compiled: %v\n eval:     %v", cErr, eErr)
	}

	// Nested chains: CompileBool composes && and || as bool closures and
	// Compile lifts them, so both must match EvalBool/Eval in value, error
	// offset and error identity — including a non-bool operand and a
	// division by zero on either side of each operator.
	scope := MapScope{"a": Bool(true), "b": Bool(false), "n": U8(3), "z": U8(0)}
	l = NewScopeLayout()
	for _, name := range []string{"a", "b", "n", "z"} {
		l.Add(name)
	}
	f = l.NewFrame()
	for name, v := range scope {
		slot, _ := l.Slot(name)
		f.Set(slot, v)
	}
	for _, src := range []string{
		"a && b || !a",
		"!(a && b) && (b || a)",
		"a && (b || !(n < 2))",
		"!(b || (a && !b)) || (n == 3 && !b)",
		"(a || 1 / z == 1) && !b", // short-circuits past the division
		"b && n / z == 1",         // short-circuits past the division
		"(b || 1 / z == 1) && a",  // division by zero on the left
		"a && (b || n % z == 1)",  // division by zero on the right
		"!(n / z == 0) || a",      // under ! on the left
		"b || !(n % z == 0)",      // under ! on the right
		"n && a",                  // non-bool left of &&
		"a && n",                  // non-bool right of &&
		"n || a",                  // non-bool left of ||
		"b || (a && n)",           // non-bool, nested on the right
		"!n && a",                 // ! of a non-bool
		"!(a && n)",               // non-bool inside a negated chain
		"a || n",                  // short-circuits past the non-bool
		"n",                       // a bare non-bool guard
	} {
		e := MustParse(src)
		wantB, wantBErr := EvalBool(e, scope)
		gotB, gotBErr := CompileBool(e, l)(f)
		checkParity(t, "CompileBool "+src, Bool(wantB), wantBErr, Bool(gotB), gotBErr)
		wantV, wantErr := Eval(e, scope)
		gotV, gotErr := Compile(e, l)(f)
		checkParity(t, "Compile "+src, wantV, wantErr, gotV, gotErr)
	}
}

// checkParity asserts that a compiled result matches Eval's: the same
// value, or an error with the same text, offset and cause.
func checkParity(t *testing.T, what string, wantV Value, wantErr error, gotV Value, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Errorf("%s: eval err=%v compiled err=%v", what, wantErr, gotErr)
		return
	}
	if wantErr == nil {
		if !wantV.Equal(gotV) {
			t.Errorf("%s: eval=%s compiled=%s", what, wantV, gotV)
		}
		return
	}
	var we, ge *EvalError
	if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) {
		t.Fatalf("%s: errors are not *EvalError: eval=%v compiled=%v", what, wantErr, gotErr)
	}
	if we.Offset != ge.Offset || wantErr.Error() != gotErr.Error() {
		t.Errorf("%s: error mismatch\n eval:     %v\n compiled: %v", what, wantErr, gotErr)
	}
	if errors.Is(wantErr, ErrDivisionByZero) != errors.Is(gotErr, ErrDivisionByZero) {
		t.Errorf("%s: errors.Is(ErrDivisionByZero) differs: eval=%v compiled=%v", what, wantErr, gotErr)
	}
}

func TestCompileUnsetSlotIsUndefined(t *testing.T) {
	e := MustParse("x + 1")
	l := NewScopeLayout()
	l.Add("x")
	f := l.NewFrame() // slot left unset
	_, err := Compile(e, l)(f)
	if err == nil {
		t.Fatal("unset slot evaluated successfully")
	}
	_, evalErr := Eval(e, MapScope{})
	if err.Error() != evalErr.Error() {
		t.Fatalf("undefined variable mismatch:\n compiled: %v\n eval:     %v", err, evalErr)
	}
}

func TestBytesViewAliases(t *testing.T) {
	b := []byte{1, 2, 3}
	v := BytesView(b)
	b[0] = 9
	if v.RawBytes()[0] != 9 {
		t.Error("BytesView copied its input")
	}
	if Bytes(b).RawBytes()[0] != 9 {
		t.Error("sanity")
	}
	c := Bytes(b)
	b[0] = 1
	if c.RawBytes()[0] != 9 {
		t.Error("Bytes did not copy its input")
	}
}

func TestMsgViewAliases(t *testing.T) {
	fields := map[string]Value{"seq": U8(1)}
	v := MsgView("M", fields)
	fields["seq"] = U8(2)
	if got, _ := v.Field("seq"); got.AsUint() != 2 {
		t.Error("MsgView copied its field map")
	}
	m := Msg("M", fields)
	fields["seq"] = U8(3)
	if got, _ := m.Field("seq"); got.AsUint() != 2 {
		t.Error("Msg did not copy its field map")
	}
}

// TestCompiledFusedShapesParity drives the peephole-fused closures
// (msg.field ==/!= var, var op literal) against Eval on success and
// failure inputs.
func TestCompiledFusedShapesParity(t *testing.T) {
	msg := Msg("Ack", map[string]Value{"seq": U8(7)})
	cases := []struct {
		src  string
		vals map[string]Value
	}{
		{"ack.seq == seq", map[string]Value{"ack": msg, "seq": U8(7)}},
		{"ack.seq == seq", map[string]Value{"ack": msg, "seq": U8(8)}},
		{"ack.seq != seq", map[string]Value{"ack": msg, "seq": U8(8)}},
		{"ack.nope == seq", map[string]Value{"ack": msg, "seq": U8(8)}},
		{"ack.seq == seq", map[string]Value{"ack": U8(1), "seq": U8(8)}}, // non-msg
		{"ack.seq == seq", map[string]Value{"seq": U8(8)}},               // ack undefined
		{"ack.seq == seq", map[string]Value{"ack": msg}},                 // seq undefined
		{"seq + 1", map[string]Value{"seq": U8(255)}},                    // wraps to 0
		{"seq + 1", map[string]Value{"seq": Bool(true)}},                 // kind error
		{"seq + 1", map[string]Value{}},                                  // undefined
		{"seq - 300", map[string]Value{"seq": U8(1)}},                    // wide literal
		{"seq < 16", map[string]Value{"seq": U8(200)}},
	}
	for _, tc := range cases {
		e := MustParse(tc.src)
		layout := NewScopeLayout()
		for name := range tc.vals {
			layout.Add(name)
		}
		// Bind referenced-but-missing names nowhere: absent from layout,
		// matching an absent scope entry.
		f := layout.NewFrame()
		for name, v := range tc.vals {
			slot, _ := layout.Slot(name)
			f.Set(slot, v)
		}
		wantV, wantErr := Eval(e, MapScope(tc.vals))
		gotV, gotErr := Compile(e, layout)(f)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s %v: eval err=%v compiled err=%v", tc.src, tc.vals, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Errorf("%s: error mismatch\n eval:     %v\n compiled: %v", tc.src, wantErr, gotErr)
			}
			continue
		}
		if !wantV.Equal(gotV) {
			t.Errorf("%s: eval=%s compiled=%s", tc.src, wantV, gotV)
		}
		if wantV.Kind() == KindUint && wantV.Bits() != gotV.Bits() {
			t.Errorf("%s: width eval=u%d compiled=u%d", tc.src, wantV.Bits(), gotV.Bits())
		}
	}
}

// TestCompiledShapeFastPathFallsBack: a layout that declares p's shape
// takes the slot fast path only for a frame of exactly that shape. A
// map-backed message, or a frame laid out by another shape of the same
// message, must fall back to the by-name path and match Eval.
func TestCompiledShapeFastPathFallsBack(t *testing.T) {
	declared := NewMsgShape("Pkt", []string{"seq", "chk"})
	swapped := NewMsgShape("Pkt", []string{"chk", "seq"})
	fr := NewFrame(2)
	fr.Set(0, U8(9)) // chk under swapped, seq under declared
	fr.Set(1, U8(4)) // seq under swapped, chk under declared
	layout := NewScopeLayout()
	pSlot, seqSlot := layout.Add("p"), layout.Add("seq")
	layout.SetShape("p", declared)
	f := layout.NewFrame()
	f.Set(seqSlot, U8(4))
	for _, p := range []Value{
		FrameMsg(declared, fr),
		FrameMsg(swapped, fr),
		Msg("Pkt", map[string]Value{"seq": U8(4), "chk": U8(9)}),
		Msg("Pkt", map[string]Value{"chk": U8(9)}),
	} {
		f.Set(pSlot, p)
		scope := MapScope{"p": p, "seq": U8(4)}
		for _, src := range []string{"p.seq == seq", "p.seq != seq", "p.chk", "p.seq"} {
			e := MustParse(src)
			wantV, wantErr := Eval(e, scope)
			gotV, gotErr := Compile(e, layout)(f)
			checkParity(t, src+" over "+p.String(), wantV, wantErr, gotV, gotErr)
		}
	}
}
