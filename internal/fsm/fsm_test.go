package fsm

import (
	"errors"
	"fmt"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// arqMessages returns the paper's §3.4 wire messages.
func arqMessages() map[string]*wire.Message {
	return map[string]*wire.Message{
		"Packet": {
			Name: "Packet",
			Fields: []wire.Field{
				{Name: "seq", Kind: wire.FieldUint, Bits: 8},
				{Name: "chk", Kind: wire.FieldUint, Bits: 8,
					Compute: &wire.Compute{Kind: wire.ComputeChecksum, Algo: wire.ChecksumSum8}},
				{Name: "paylen", Kind: wire.FieldUint, Bits: 16},
				{Name: "payload", Kind: wire.FieldBytes, LenKind: wire.LenField, LenField: "paylen"},
			},
		},
		"Ack": {
			Name: "Ack",
			Fields: []wire.Field{
				{Name: "seq", Kind: wire.FieldUint, Bits: 8},
				{Name: "chk", Kind: wire.FieldUint, Bits: 8,
					Compute: &wire.Compute{Kind: wire.ComputeChecksum, Algo: wire.ChecksumSum8}},
			},
		},
	}
}

// senderSpec builds the paper's ARQ sender:
//
//	data SendSt = Ready | Wait | Timeout | Sent   (each carrying seq)
//	SEND    : Ready -> Wait     (sends Packet)
//	OK      : Wait  -> Ready    (seq+1, requires matching ack)
//	FAIL    : Wait  -> Ready
//	TIMEOUT : Wait  -> Timeout
//	FINISH  : Ready -> Sent
//
// plus a RETRY: Timeout -> Ready transition so the machine can make
// progress after a timeout (the paper's sendPacket "the machine is ready
// to try again").
func senderSpec() *Spec {
	return &Spec{
		Name: "Sender",
		Vars: []Var{{Name: "seq", Type: expr.TU8}},
		States: []State{
			{Name: "Ready", Init: true},
			{Name: "Wait"},
			{Name: "Timeout"},
			{Name: "Sent", Final: true},
		},
		Events: []Event{
			{Name: "SEND", Params: []Param{{Name: "data", Type: expr.TBytes}}},
			{Name: "OK", Params: []Param{{Name: "ack", Type: expr.TMsg("Ack")}}},
			{Name: "FAIL"},
			{Name: "TIMEOUT"},
			{Name: "RETRY"},
			{Name: "FINISH"},
		},
		Transitions: []Transition{
			{Name: "send", From: "Ready", Event: "SEND", To: "Wait",
				Outputs: []Output{{Message: "Packet", Fields: map[string]expr.Expr{
					"seq":     expr.MustParse("seq"),
					"payload": expr.MustParse("data"),
				}}}},
			{Name: "ok", From: "Ready", Event: "OK", To: "Ready"}, // stale ack: no-op loop
			{Name: "ack", From: "Wait", Event: "OK", To: "Ready",
				Guard:   expr.MustParse("ack.seq == seq"),
				Assigns: []Assign{{Var: "seq", Expr: expr.MustParse("seq + 1")}}},
			{Name: "fail", From: "Wait", Event: "FAIL", To: "Ready"},
			{Name: "timeout", From: "Wait", Event: "TIMEOUT", To: "Timeout"},
			{Name: "retry", From: "Timeout", Event: "RETRY", To: "Ready"},
			{Name: "finish", From: "Ready", Event: "FINISH", To: "Sent"},
		},
		Ignores: []Ignore{
			{State: "Ready", Event: "FAIL"},
			{State: "Ready", Event: "TIMEOUT"},
			{State: "Ready", Event: "RETRY"},
			{State: "Wait", Event: "SEND"},
			{State: "Wait", Event: "RETRY"},
			{State: "Wait", Event: "FINISH"},
			{State: "Timeout", Event: "SEND"},
			{State: "Timeout", Event: "OK"},
			{State: "Timeout", Event: "FAIL"},
			{State: "Timeout", Event: "TIMEOUT"},
			{State: "Timeout", Event: "FINISH"},
		},
		Messages: arqMessages(),
	}
}

func TestCheckPaperSender(t *testing.T) {
	report := Check(senderSpec())
	if !report.OK() {
		for _, i := range report.Issues {
			t.Logf("issue: %s", i)
		}
		t.Fatal("the paper's ARQ sender must pass the static checker")
	}
	// The guarded-only (Wait, OK) pair produces a completeness warning:
	// rejection of a mismatched ack is a defined outcome.
	found := false
	for _, w := range report.Warnings() {
		if w.Class == ClassCompleteness && w.State == "Wait" && w.Event == "OK" {
			found = true
		}
	}
	if !found {
		t.Error("expected a guarded-only completeness warning for (Wait, OK)")
	}
}

func TestCheckSeededBugs(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Spec)
		class   string
		wantErr bool
	}{
		{"undeclared target state", func(s *Spec) {
			s.Transitions[0].To = "Nowhere"
		}, ClassSoundness, true},
		{"undeclared source state", func(s *Spec) {
			s.Transitions[0].From = "Nowhere"
		}, ClassSoundness, true},
		{"undeclared event", func(s *Spec) {
			s.Transitions[0].Event = "NOPE"
		}, ClassSoundness, true},
		{"outgoing from final", func(s *Spec) {
			s.Transitions = append(s.Transitions, Transition{From: "Sent", Event: "SEND", To: "Ready"})
		}, ClassSoundness, true},
		{"ill-typed guard", func(s *Spec) {
			s.Transitions[2].Guard = expr.MustParse("ack.seq + seq") // uint, not bool
		}, ClassSoundness, true},
		{"guard references unknown field", func(s *Spec) {
			s.Transitions[2].Guard = expr.MustParse("ack.nonexistent == seq")
		}, ClassSoundness, true},
		{"assign to undeclared var", func(s *Spec) {
			s.Transitions[2].Assigns = []Assign{{Var: "nope", Expr: expr.MustParse("1")}}
		}, ClassSoundness, true},
		{"assign wrong type", func(s *Spec) {
			s.Transitions[2].Assigns = []Assign{{Var: "seq", Expr: expr.MustParse("seq == 0")}}
		}, ClassSoundness, true},
		{"output missing field", func(s *Spec) {
			delete(s.Transitions[0].Outputs[0].Fields, "payload")
		}, ClassSoundness, true},
		{"output unknown message", func(s *Spec) {
			s.Transitions[0].Outputs[0].Message = "Nope"
		}, ClassSoundness, true},
		{"output supplies computed field", func(s *Spec) {
			s.Transitions[0].Outputs[0].Fields["chk"] = expr.MustParse("0")
		}, ClassSoundness, true},
		{"output unknown field", func(s *Spec) {
			s.Transitions[0].Outputs[0].Fields["bogus"] = expr.MustParse("0")
		}, ClassSoundness, true},
		{"unhandled event", func(s *Spec) {
			// Remove the ignore that covers (Timeout, SEND).
			var kept []Ignore
			for _, ig := range s.Ignores {
				if !(ig.State == "Timeout" && ig.Event == "SEND") {
					kept = append(kept, ig)
				}
			}
			s.Ignores = kept
		}, ClassCompleteness, true},
		{"ambiguous unguarded pair", func(s *Spec) {
			s.Transitions = append(s.Transitions, Transition{From: "Wait", Event: "FAIL", To: "Timeout"})
		}, ClassDeterminism, true},
		{"duplicate guard", func(s *Spec) {
			s.Transitions = append(s.Transitions, Transition{
				From: "Wait", Event: "OK", To: "Timeout", Guard: expr.MustParse("ack.seq == seq")})
		}, ClassDeterminism, true},
		{"ignore overlaps transition", func(s *Spec) {
			s.Ignores = append(s.Ignores, Ignore{State: "Ready", Event: "SEND"})
		}, ClassSoundness, true},
		{"two init states", func(s *Spec) {
			s.States[1].Init = true
		}, ClassStructure, true},
		{"duplicate state", func(s *Spec) {
			s.States = append(s.States, State{Name: "Ready"})
		}, ClassStructure, true},
		{"duplicate event", func(s *Spec) {
			s.Events = append(s.Events, Event{Name: "SEND"})
		}, ClassStructure, true},
		{"duplicate var", func(s *Spec) {
			s.Vars = append(s.Vars, Var{Name: "seq", Type: expr.TU16})
		}, ClassStructure, true},
		{"bad message", func(s *Spec) {
			s.Messages["Broken"] = &wire.Message{Name: "Broken"}
		}, ClassStructure, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := senderSpec()
			tt.mutate(s)
			report := Check(s)
			if report.OK() == tt.wantErr {
				t.Fatalf("Check OK=%v, wantErr=%v; issues: %v", report.OK(), tt.wantErr, report.Issues)
			}
			if len(report.ByClass(tt.class)) == 0 {
				t.Errorf("no issues of class %s; got %v", tt.class, report.Issues)
			}
		})
	}
}

func TestCheckWarningsOnly(t *testing.T) {
	t.Run("unreachable state", func(t *testing.T) {
		s := senderSpec()
		s.States = append(s.States, State{Name: "Limbo"})
		for _, ev := range s.Events {
			s.Ignores = append(s.Ignores, Ignore{State: "Limbo", Event: ev.Name})
		}
		report := Check(s)
		if !report.OK() {
			t.Fatalf("unexpected errors: %v", report.Errors())
		}
		if len(report.ByClass(ClassReachability)) == 0 {
			t.Error("expected a reachability warning for Limbo")
		}
	})
	t.Run("no final state", func(t *testing.T) {
		s := senderSpec()
		for i := range s.States {
			s.States[i].Final = false
		}
		// Sent now needs completeness coverage.
		for _, ev := range s.Events {
			s.Ignores = append(s.Ignores, Ignore{State: "Sent", Event: ev.Name})
		}
		report := Check(s)
		if !report.OK() {
			t.Fatalf("unexpected errors: %v", report.Errors())
		}
		if len(report.ByClass(ClassLiveness)) == 0 {
			t.Error("expected a liveness warning when no final state exists")
		}
	})
}

func TestCheckLivenessError(t *testing.T) {
	// A reachable trap state with no path to the final state must be a
	// liveness error (§3.4 guarantee 4: execution ends consistently).
	s := senderSpec()
	// Remove the retry escape from Timeout.
	var kept []Transition
	for _, tr := range s.Transitions {
		if tr.Name != "retry" {
			kept = append(kept, tr)
		}
	}
	s.Transitions = kept
	s.Ignores = append(s.Ignores, Ignore{State: "Timeout", Event: "RETRY"})
	report := Check(s)
	if report.OK() {
		t.Fatal("expected a liveness error for the Timeout trap state")
	}
	if len(report.ByClass(ClassLiveness)) == 0 {
		t.Errorf("no liveness issues: %v", report.Issues)
	}
}

// step resolves the event by name and delivers it with positional
// arguments through StepEv.
func step(m *Machine, event string, args ...expr.Value) (FrameResult, error) {
	ev, ok := m.EventID(event)
	if !ok {
		return FrameResult{}, fmt.Errorf("%w: %q", ErrUnknownEvent, event)
	}
	return m.StepEv(ev, args...)
}

// outField reads a field of an emitted message.
func outField(o FrameOutput, name string) expr.Value {
	v, _ := expr.FrameMsg(o.Shape, o.Frame).Field(name)
	return v
}

func ackValue(seq uint64) expr.Value {
	return expr.Msg("Ack", map[string]expr.Value{
		"seq": expr.U8(seq), "chk": expr.U8(0),
	})
}

func TestMachineHappyPath(t *testing.T) {
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != "Ready" {
		t.Fatalf("initial state = %s, want Ready", m.State())
	}

	res, err := step(m, "SEND", expr.Bytes([]byte("hi")))
	if err != nil {
		t.Fatal(err)
	}
	if res.To != "Wait" || res.Fired == nil || res.Fired.Name != "send" {
		t.Fatalf("SEND result = %+v", res)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Message != "Packet" {
		t.Fatalf("SEND outputs = %+v", res.Outputs)
	}
	if got := outField(res.Outputs[0], "seq").AsUint(); got != 0 {
		t.Errorf("output seq = %d, want 0", got)
	}

	// A mismatched ack is rejected (guard fails) and the state is unchanged.
	res, err = step(m, "OK", ackValue(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rejected || m.State() != "Wait" {
		t.Fatalf("mismatched ack: %+v state=%s", res, m.State())
	}

	// The matching ack advances seq.
	res, err = step(m, "OK", ackValue(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.To != "Ready" {
		t.Fatalf("OK result = %+v", res)
	}
	if seq, _ := m.Var("seq"); seq.AsUint() != 1 {
		t.Errorf("seq = %d, want 1", seq.AsUint())
	}

	if _, err := step(m, "FINISH"); err != nil {
		t.Fatal(err)
	}
	if !m.InFinal() {
		t.Error("machine should be in final state Sent")
	}
}

func TestMachineInvalidTransition(t *testing.T) {
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(m, "FINISH"); err != nil {
		t.Fatal(err) // Ready --FINISH--> Sent
	}
	// Sent is final: every event is now an invalid transition.
	if _, err := step(m, "SEND", expr.Bytes(nil)); !errors.Is(err, ErrInvalidTransition) {
		t.Errorf("StepEv in final state err = %v, want ErrInvalidTransition", err)
	}
}

func TestMachineEventValidation(t *testing.T) {
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.EventID("NOSUCH"); ok {
		t.Error("undeclared event resolved to an id")
	}
	if _, err := m.StepEv(EventID(len(m.Spec().Events))); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown event err = %v", err)
	}
	if _, err := step(m, "SEND"); !errors.Is(err, ErrBadArg) {
		t.Errorf("missing arg err = %v", err)
	}
	if _, err := step(m, "SEND", expr.U8(1)); !errors.Is(err, ErrBadArg) {
		t.Errorf("wrong kind err = %v", err)
	}
	if _, err := step(m, "SEND", expr.Bytes(nil), expr.U8(1)); !errors.Is(err, ErrBadArg) {
		t.Errorf("extra arg err = %v", err)
	}
	if _, err := step(m, "OK", expr.Msg("Packet", nil)); !errors.Is(err, ErrBadArg) { // wrong message type
		t.Errorf("wrong message type err = %v", err)
	}
}

func TestMachineIgnoredEvent(t *testing.T) {
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	res, err := step(m, "FAIL") // ignored in Ready
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ignored || m.State() != "Ready" {
		t.Errorf("ignored event: %+v state=%s", res, m.State())
	}
}

func TestMachineSeqWrapsAt256(t *testing.T) {
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := step(m, "SEND", expr.Bytes([]byte{1})); err != nil {
			t.Fatal(err)
		}
		if _, err := step(m, "OK", ackValue(uint64(i%256))); err != nil {
			t.Fatal(err)
		}
	}
	if seq, _ := m.Var("seq"); seq.AsUint() != 0 {
		t.Errorf("seq after 256 rounds = %d, want 0 (8-bit wrap)", seq.AsUint())
	}
}

func TestMachineCloneAndReset(t *testing.T) {
	m, err := NewMachine(senderSpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(m, "SEND", expr.Bytes([]byte{1})); err != nil {
		t.Fatal(err)
	}
	clone := m.Clone()
	if _, err := step(m, "OK", ackValue(0)); err != nil {
		t.Fatal(err)
	}
	if clone.State() != "Wait" {
		t.Errorf("clone state changed to %s", clone.State())
	}
	if m.StateKey() == clone.StateKey() {
		t.Error("diverged machines share a state key")
	}
	if seq, _ := m.Var("seq"); seq.AsUint() != 1 {
		t.Fatalf("seq after an acked send = %d, want 1", seq.AsUint())
	}
	if seq, _ := clone.Var("seq"); seq.AsUint() != 0 {
		t.Errorf("clone seq changed to %d", seq.AsUint())
	}
	m.Reset()
	if m.State() != "Ready" {
		t.Errorf("Reset: state=%s", m.State())
	}
	if seq, _ := m.Var("seq"); seq.AsUint() != 0 || seq.Bits() != 8 {
		t.Errorf("Reset seq = %s, want the declared u8 0", seq)
	}
	if fresh, _ := NewMachine(senderSpec()); m.StateKey() != fresh.StateKey() {
		t.Errorf("Reset state key %q, fresh machine %q", m.StateKey(), fresh.StateKey())
	}
}

func TestNewMachineRefusesBrokenSpec(t *testing.T) {
	s := senderSpec()
	s.Transitions[0].To = "Nowhere"
	_, err := NewMachine(s)
	var cerr *CheckSpecError
	if !errors.As(err, &cerr) {
		t.Fatalf("NewMachine err = %v, want *CheckSpecError", err)
	}
	if cerr.Report == nil || cerr.Report.OK() {
		t.Error("CheckSpecError carries no failing report")
	}
}

func TestVarInitValues(t *testing.T) {
	s := senderSpec()
	s.Vars[0].Init = expr.U8(7)
	m, err := NewMachine(s)
	if err != nil {
		t.Fatal(err)
	}
	if seq, _ := m.Var("seq"); seq.AsUint() != 7 {
		t.Errorf("init seq = %d, want 7", seq.AsUint())
	}
}

func TestSimultaneousAssignment(t *testing.T) {
	// swap := a,b = b,a must read both pre-state values.
	s := &Spec{
		Name: "Swap",
		Vars: []Var{
			{Name: "a", Type: expr.TU8, Init: expr.U8(1)},
			{Name: "b", Type: expr.TU8, Init: expr.U8(2)},
		},
		States: []State{{Name: "S", Init: true}},
		Events: []Event{{Name: "SWAP"}},
		Transitions: []Transition{{
			From: "S", Event: "SWAP", To: "S",
			Assigns: []Assign{
				{Var: "a", Expr: expr.MustParse("b")},
				{Var: "b", Expr: expr.MustParse("a")},
			},
		}},
	}
	m, err := NewMachine(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step(m, "SWAP"); err != nil {
		t.Fatal(err)
	}
	a, _ := m.Var("a")
	b, _ := m.Var("b")
	if a.AsUint() != 2 || b.AsUint() != 1 {
		t.Errorf("after swap a=%d b=%d, want 2,1", a.AsUint(), b.AsUint())
	}
}

// ByClass returns the issues of the given class.
func (r *Report) ByClass(class string) []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Class == class {
			out = append(out, i)
		}
	}
	return out
}
