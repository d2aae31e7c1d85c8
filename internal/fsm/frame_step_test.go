package fsm

import (
	"errors"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// frameSpec is a small machine exercising every StepEv feature: a
// message-typed parameter (compiled against the message's shape), guards
// on its fields, assignments, outputs, ignores and rejection.
func frameSpec() *Spec {
	return &Spec{
		Name: "FrameSpec",
		Vars: []Var{{Name: "seq", Type: expr.TU8}},
		States: []State{
			{Name: "A", Init: true},
			{Name: "B", Final: true},
		},
		Events: []Event{
			{Name: "GO", Params: []Param{{Name: "m", Type: expr.TMsg("Msg")}}},
			{Name: "NOP"},
			{Name: "END"},
		},
		Transitions: []Transition{
			{Name: "match", From: "A", Event: "GO", To: "A",
				Guard:   expr.MustParse("m.id == seq"),
				Assigns: []Assign{{Var: "seq", Expr: expr.MustParse("seq + 1")}},
				Outputs: []Output{{Message: "Msg", Fields: map[string]expr.Expr{
					"id":   expr.MustParse("m.id"),
					"body": expr.MustParse("m.body"),
				}}}},
			{Name: "end", From: "A", Event: "END", To: "B"},
		},
		Ignores: []Ignore{{State: "A", Event: "NOP"}},
		Messages: map[string]*wire.Message{
			"Msg": {Name: "Msg", Fields: []wire.Field{
				{Name: "id", Kind: wire.FieldUint, Bits: 8},
				{Name: "body", Kind: wire.FieldBytes, LenKind: wire.LenRest},
			}},
		},
	}
}

// msgArg builds the same message twice: by Msg, whose shape lists the
// fields sorted (body, id), and as a frame laid out by the program's
// compiled shape (id, body).
func msgArg(prog *Program, id uint64, body []byte) (byName, compiled expr.Value) {
	byName = expr.Msg("Msg", map[string]expr.Value{
		"id": expr.U8(id), "body": expr.Bytes(body),
	})
	shape := prog.MsgShape("Msg")
	f := expr.NewFrame(shape.NumFields())
	idSlot, _ := shape.Slot("id")
	bodySlot, _ := shape.Slot("body")
	f.Set(idSlot, expr.U8(id))
	f.Set(bodySlot, expr.Bytes(body))
	return byName, expr.FrameMsg(shape, f)
}

// TestStepEvShapeFastPathMatchesByName drives two machines of the same
// program through an identical event sequence — one given messages of
// the compiled shape, whose guards read field slots directly, one given
// messages of another shape, which take the by-name field path — and
// asserts identical dispatch outcomes, states, variables and output
// field values.
func TestStepEvShapeFastPathMatchesByName(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	mName := prog.NewMachine()
	mShape := prog.NewMachine()
	goID, ok := prog.EventID("GO")
	if !ok {
		t.Fatal("no GO event")
	}
	nopID, _ := prog.EventID("NOP")

	for round := 0; round < 6; round++ {
		// Alternate matching and non-matching ids so both the fired and
		// rejected paths are compared.
		id := uint64(round / 2)
		body := []byte{byte(round), byte(round + 1)}
		byName, compiled := msgArg(prog, id, body)

		nres, nerr := mName.StepEv(goID, byName)
		sres, serr := mShape.StepEv(goID, compiled)
		if (nerr == nil) != (serr == nil) {
			t.Fatalf("round %d: by-name err %v, shape err %v", round, nerr, serr)
		}
		if nerr != nil {
			continue
		}
		if nres.From != sres.From || nres.To != sres.To ||
			nres.Ignored != sres.Ignored || nres.Rejected != sres.Rejected ||
			(nres.Fired == nil) != (sres.Fired == nil) {
			t.Fatalf("round %d: dispatch mismatch: %+v vs %+v", round, nres, sres)
		}
		if len(nres.Outputs) != len(sres.Outputs) {
			t.Fatalf("round %d: %d vs %d outputs", round, len(nres.Outputs), len(sres.Outputs))
		}
		for i := range nres.Outputs {
			no, so := nres.Outputs[i], sres.Outputs[i]
			if nv, sv := expr.FrameMsg(no.Shape, no.Frame), expr.FrameMsg(so.Shape, so.Frame); !nv.Equal(sv) {
				t.Fatalf("round %d: output %v vs %v", round, nv, sv)
			}
		}
		if mName.State() != mShape.State() {
			t.Fatalf("round %d: state %s vs %s", round, mName.State(), mShape.State())
		}
		nv, _ := mName.Var("seq")
		sv, _ := mShape.Var("seq")
		if !nv.Equal(sv) {
			t.Fatalf("round %d: seq %v vs %v", round, nv, sv)
		}
	}

	for _, m := range []*Machine{mName, mShape} {
		if res, err := m.StepEv(nopID); err != nil || !res.Ignored {
			t.Fatalf("StepEv NOP: %+v, %v", res, err)
		}
	}
}

// TestStepEvArgErrors pins the argument-validation failure modes.
func TestStepEvArgErrors(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	goID, _ := prog.EventID("GO")
	if _, err := m.StepEv(goID); !errors.Is(err, ErrBadArg) {
		t.Fatalf("missing arg: %v", err)
	}
	if _, err := m.StepEv(goID, expr.U8(1)); !errors.Is(err, ErrBadArg) {
		t.Fatalf("wrong kind: %v", err)
	}
	if _, err := m.StepEv(EventID(99)); !errors.Is(err, ErrUnknownEvent) {
		t.Fatalf("bad id: %v", err)
	}
	endID, _ := prog.EventID("END")
	m2 := prog.NewMachine()
	if _, err := m2.StepEv(endID); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.StepEv(endID); !errors.Is(err, ErrInvalidTransition) {
		t.Fatalf("invalid transition: %v", err)
	}
}

// TestExecutableMatchesSpec pins Executable against the spec-level
// lookups it replaces, for every (state, event) pair, plus the
// out-of-range ids.
func TestExecutableMatchesSpec(t *testing.T) {
	spec := frameSpec()
	prog, err := CompileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	for _, st := range spec.States {
		if _, err := m.RestoreState(append([]byte{byte(prog.stateIdx[st.Name])}, expr.U8(0).AppendCanon(nil)...)); err != nil {
			t.Fatal(err)
		}
		for _, ev := range spec.Events {
			id, _ := prog.EventID(ev.Name)
			want := len(spec.TransitionsFrom(st.Name, ev.Name)) > 0 || spec.Ignored(st.Name, ev.Name)
			if got := m.Executable(id); got != want {
				t.Errorf("Executable(%s) in %s = %v, want %v", ev.Name, st.Name, got, want)
			}
		}
	}
	if m.Executable(EventID(-1)) || m.Executable(EventID(len(spec.Events))) {
		t.Error("out-of-range event id reported executable")
	}
}

// TestStepEvZeroAllocs pins the frame path's allocation contract: a
// fired transition with a guard, an assignment and an output allocates
// nothing in steady state.
func TestStepEvZeroAllocs(t *testing.T) {
	prog, err := CompileSpec(frameSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	goID, _ := prog.EventID("GO")
	shape := prog.MsgShape("Msg")
	f := expr.NewFrame(shape.NumFields())
	idSlot, _ := shape.Slot("id")
	bodySlot, _ := shape.Slot("body")
	f.Set(bodySlot, expr.BytesView([]byte{1, 2, 3}))
	seqSlot := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		f.Set(idSlot, expr.U8(seqSlot))
		res, err := m.StepEv(goID, expr.FrameMsg(shape, f))
		if err != nil {
			t.Fatal(err)
		}
		if res.Fired != nil {
			seqSlot++
		}
	}); n != 0 {
		t.Fatalf("StepEv allocates %.1f/op", n)
	}
}
