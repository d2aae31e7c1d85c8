package fsm

import (
	"testing"

	"protodsl/internal/expr"
)

// shadowSpec declares an event parameter that shares a machine
// variable's name: inside the event's transitions the parameter must win
// (the interpreter's historical args-before-vars resolution order).
func shadowSpec() *Spec {
	return &Spec{
		Name: "Shadow",
		Vars: []Var{
			{Name: "x", Type: expr.TU8, Init: expr.U8(5)},
			{Name: "seen", Type: expr.TU8},
		},
		States: []State{
			{Name: "A", Init: true},
		},
		Events: []Event{
			{Name: "E", Params: []Param{{Name: "x", Type: expr.TU8}}},
			{Name: "PLAIN"},
		},
		Transitions: []Transition{
			{Name: "hit", From: "A", Event: "E", To: "A",
				Guard:   expr.MustParse("x == 7"),
				Assigns: []Assign{{Var: "seen", Expr: expr.MustParse("x")}}},
			{Name: "miss", From: "A", Event: "E", To: "A",
				Guard: expr.MustParse("x != 7")},
			{Name: "plain", From: "A", Event: "PLAIN", To: "A",
				Assigns: []Assign{{Var: "seen", Expr: expr.MustParse("x")}}},
		},
	}
}

func TestCompiledParamShadowsVar(t *testing.T) {
	m, err := NewMachine(shadowSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The guard and the assignment must see the *parameter* x=7, not the
	// variable x=5.
	res, err := step(m, "E", expr.U8(7))
	if err != nil {
		t.Fatal(err)
	}
	if res.Fired == nil || res.Fired.Name != "hit" {
		t.Fatalf("fired = %v, want hit", res.Fired)
	}
	if seen, _ := m.Var("seen"); seen.AsUint() != 7 {
		t.Errorf("seen = %s, want 7 (parameter value)", seen)
	}
	// The variable x itself must be untouched by parameter binding.
	if x, _ := m.Var("x"); x.AsUint() != 5 {
		t.Errorf("var x = %s, want 5", x)
	}
	// An event without the parameter resolves x to the variable again.
	if _, err := step(m, "PLAIN"); err != nil {
		t.Fatal(err)
	}
	if seen, _ := m.Var("seen"); seen.AsUint() != 5 {
		t.Errorf("seen after PLAIN = %s, want 5 (variable value)", seen)
	}
}

func TestProgramReuseAcrossMachines(t *testing.T) {
	prog, err := CompileSpec(shadowSpec())
	if err != nil {
		t.Fatal(err)
	}
	a, b := prog.NewMachine(), prog.NewMachine()
	if _, err := step(a, "E", expr.U8(7)); err != nil {
		t.Fatal(err)
	}
	// b is unaffected by a's step: machines share only the immutable
	// program, never frames.
	if seen, _ := b.Var("seen"); seen.AsUint() != 0 {
		t.Errorf("machine b saw machine a's state: seen = %s", seen)
	}
	if seen, _ := a.Var("seen"); seen.AsUint() != 7 {
		t.Errorf("machine a: seen = %s, want 7", seen)
	}
	if a.StateKey() == b.StateKey() {
		t.Error("machines a and b share a state key after only a stepped")
	}
}

func TestCompileSpecRefusesBrokenSpec(t *testing.T) {
	spec := shadowSpec()
	spec.Transitions[0].Guard = expr.MustParse("x == nosuchvar")
	if _, err := CompileSpec(spec); err == nil {
		t.Fatal("CompileSpec accepted a spec with an unsound guard")
	}
}
