package fsm

import (
	"bytes"
	"encoding/binary"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

func snapshotSpec() *Spec {
	return &Spec{
		Name: "Snap",
		Vars: []Var{
			{Name: "seq", Type: expr.TU8},
			{Name: "last", Type: expr.Type{Kind: expr.KindMsg, MsgName: "Pkt"}},
		},
		States: []State{
			{Name: "Idle", Init: true},
			{Name: "Busy"},
		},
		Events: []Event{
			{Name: "GO", Params: []Param{{Name: "p", Type: expr.Type{Kind: expr.KindMsg, MsgName: "Pkt"}}}},
			{Name: "STOP"},
		},
		Transitions: []Transition{
			{Name: "go", From: "Idle", Event: "GO", To: "Busy",
				Assigns: []Assign{
					{Var: "seq", Expr: expr.MustParse("(seq + 1) % 16")},
					{Var: "last", Expr: expr.MustParse("p")},
				}},
			{Name: "stop", From: "Busy", Event: "STOP", To: "Idle"},
		},
		Ignores: []Ignore{
			{State: "Idle", Event: "STOP"},
			{State: "Busy", Event: "GO"},
		},
		Messages: map[string]*wire.Message{
			"Pkt": {Name: "Pkt", Fields: []wire.Field{
				{Name: "seq", Kind: wire.FieldUint, Bits: 8},
			}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	prog, err := CompileSpec(snapshotSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	other := prog.NewMachine()

	pkt := func(seq uint64) []expr.Value {
		return []expr.Value{expr.Msg("Pkt", map[string]expr.Value{"seq": expr.U8(seq)})}
	}
	steps := []struct {
		event string
		args  []expr.Value
	}{
		{"GO", pkt(3)}, {"STOP", nil}, {"GO", pkt(7)},
	}
	for i, s := range steps {
		if _, err := step(m, s.event, s.args...); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		enc := m.AppendState(nil)
		rest, err := other.RestoreState(enc)
		if err != nil {
			t.Fatalf("step %d: restore: %v", i, err)
		}
		if len(rest) != 0 {
			t.Fatalf("step %d: %d leftover bytes", i, len(rest))
		}
		if other.State() != m.State() || other.StateKey() != m.StateKey() {
			t.Fatalf("step %d: restored %q (%s), want %q (%s)",
				i, other.State(), other.StateKey(), m.State(), m.StateKey())
		}
		// Re-encoding the restored machine must reproduce the bytes: the
		// encoding is the state's identity in the visited table.
		if re := other.AppendState(nil); !bytes.Equal(re, enc) {
			t.Fatalf("step %d: re-encode differs: %x vs %x", i, re, enc)
		}
	}
}

func TestSnapshotRestoredMachineSteps(t *testing.T) {
	prog, err := CompileSpec(snapshotSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	p := expr.Msg("Pkt", map[string]expr.Value{"seq": expr.U8(1)})
	if _, err := step(m, "GO", p); err != nil {
		t.Fatal(err)
	}
	enc := m.AppendState(nil)

	// A restored machine must continue exactly like the original,
	// including wrap-around arithmetic on the restored widths.
	other := prog.NewMachine()
	if _, err := other.RestoreState(enc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := step(m, "STOP"); err != nil {
			t.Fatal(err)
		}
		if _, err := step(other, "STOP"); err != nil {
			t.Fatal(err)
		}
		if _, err := step(m, "GO", p); err != nil {
			t.Fatal(err)
		}
		if _, err := step(other, "GO", p); err != nil {
			t.Fatal(err)
		}
		if m.StateKey() != other.StateKey() {
			t.Fatalf("iteration %d: diverged: %s vs %s", i, m.StateKey(), other.StateKey())
		}
	}
}

func TestSnapshotRestoreErrors(t *testing.T) {
	prog, err := CompileSpec(snapshotSpec())
	if err != nil {
		t.Fatal(err)
	}
	m := prog.NewMachine()
	enc := m.AppendState(nil)

	if _, err := m.RestoreState(nil); err == nil {
		t.Error("expected error for empty input")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0x7F // state index out of range
	if _, err := m.RestoreState(bad); err == nil {
		t.Error("expected error for bad state index")
	}
	if _, err := m.RestoreState(enc[:len(enc)-1]); err == nil {
		t.Error("expected error for truncated input")
	}
	// A bool where a uint variable is expected: kind mismatch.
	wrong := binary.AppendUvarint(nil, 0)
	wrong = expr.Bool(true).AppendCanon(wrong)
	wrong = expr.Msg("Pkt", nil).AppendCanon(wrong)
	if _, err := m.RestoreState(wrong); err == nil {
		t.Error("expected error for kind mismatch")
	}
}
