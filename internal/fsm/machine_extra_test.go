package fsm

import (
	"testing"

	"protodsl/internal/expr"
)

func TestNewMachineFromChecked(t *testing.T) {
	spec := senderSpec()
	report := Check(spec)
	m, err := NewMachineFromChecked(spec, report)
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != "Ready" {
		t.Errorf("state = %s", m.State())
	}

	// Nil report refused.
	if _, err := NewMachineFromChecked(spec, nil); err == nil {
		t.Error("nil report accepted")
	}
	// Mismatched report refused.
	other := Check(&Spec{Name: "Other", States: []State{{Name: "A", Init: true}}})
	if _, err := NewMachineFromChecked(spec, other); err == nil {
		t.Error("foreign report accepted")
	}
	// Failing report refused.
	bad := senderSpec()
	bad.Transitions[0].To = "Nowhere"
	badReport := Check(bad)
	bad.Transitions[0].To = "Wait" // even after repair, the report says no
	if _, err := NewMachineFromChecked(bad, badReport); err == nil {
		t.Error("failing report accepted")
	}
}

func TestRejectedGuardHasNoEffects(t *testing.T) {
	// A rejected event must produce no outputs and no assignments.
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(m, "SEND", expr.Bytes(nil)); err != nil {
		t.Fatal(err)
	}
	before, _ := m.Var("seq")
	res, err := step(m, "OK", expr.Msg("Ack", map[string]expr.Value{"seq": expr.U8(200), "chk": expr.U8(0)}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected || len(res.Outputs) != 0 {
		t.Errorf("rejected step leaked effects: %+v", res)
	}
	after, _ := m.Var("seq")
	if before.AsUint() != after.AsUint() {
		t.Error("rejected step mutated variables")
	}
}

func TestGuardEvaluationOrder(t *testing.T) {
	// First matching guard wins; later ones are not consulted.
	s := &Spec{
		Name:   "Order",
		Vars:   []Var{{Name: "x", Type: expr.TU8}},
		States: []State{{Name: "A", Init: true}, {Name: "B"}, {Name: "C"}},
		Events: []Event{{Name: "GO", Params: []Param{{Name: "v", Type: expr.TU8}}}},
		Transitions: []Transition{
			{Name: "toB", From: "A", Event: "GO", To: "B", Guard: expr.MustParse("v < 10")},
			{Name: "toC", From: "A", Event: "GO", To: "C", Guard: expr.MustParse("v < 100")},
			{Name: "loopB", From: "B", Event: "GO", To: "B"},
			{Name: "loopC", From: "C", Event: "GO", To: "C"},
		},
	}
	m, err := NewMachine(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err := step(m, "GO", expr.U8(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired == nil || res.Fired.Name != "toB" {
		t.Errorf("fired %v, want toB (declaration order)", res.Fired)
	}

	m2, err := NewMachine(s)
	if err != nil {
		t.Fatal(err)
	}
	res, err = step(m2, "GO", expr.U8(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired == nil || res.Fired.Name != "toC" {
		t.Errorf("fired %v, want toC", res.Fired)
	}
}

func TestMachineGuardDivisionByZeroSurfaces(t *testing.T) {
	// A guard that divides by a zero variable is a runtime error the
	// interpreter must surface (not silently treat as false).
	s := &Spec{
		Name:   "Div",
		Vars:   []Var{{Name: "d", Type: expr.TU8}},
		States: []State{{Name: "A", Init: true}},
		Events: []Event{{Name: "GO"}},
		Transitions: []Transition{
			{Name: "go", From: "A", Event: "GO", To: "A", Guard: expr.MustParse("10 / d > 1")},
		},
	}
	m, err := NewMachine(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(m, "GO"); err == nil {
		t.Error("division by zero in guard not surfaced")
	}
}
