package dsl

import (
	"errors"
	"strings"
	"testing"

	"protodsl/examples/specs"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/wire"
)

func TestCompileARQSource(t *testing.T) {
	proto, reports, err := Compile(specs.ARQ)
	if err != nil {
		t.Fatalf("Compile(specs.ARQ): %v", err)
	}
	if proto.Name != "arq" {
		t.Errorf("name = %q", proto.Name)
	}
	if len(proto.MessageOrder) != 2 || proto.MessageOrder[0] != "Packet" || proto.MessageOrder[1] != "Ack" {
		t.Errorf("messages = %v", proto.MessageOrder)
	}
	if len(proto.Machines) != 2 {
		t.Fatalf("machines = %d", len(proto.Machines))
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("machine %s has errors: %v", r.Spec, r.Errors())
		}
	}
	sender, ok := proto.Machine("Sender")
	if !ok {
		t.Fatal("no Sender machine")
	}
	if sender.InitState() != "Ready" {
		t.Errorf("sender init = %q", sender.InitState())
	}
	if len(sender.Transitions) != 6 {
		t.Errorf("sender transitions = %d", len(sender.Transitions))
	}
	if len(sender.Ignores) != 12 {
		t.Errorf("sender ignores = %d", len(sender.Ignores))
	}
}

// TestDSLMatchesProgrammaticSpec: the DSL-compiled ARQ machines must be
// behaviourally identical to the programmatic specs in internal/arq.
// Equivalence is checked structurally over every dimension that affects
// execution.
func TestDSLMatchesProgrammaticARQ(t *testing.T) {
	proto, _, err := Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	sender, _ := proto.Machine("Sender")

	m, err := fsm.NewMachine(sender)
	if err != nil {
		t.Fatal(err)
	}
	// Drive the happy path exactly as the arq tests do.
	sendEv, _ := m.EventID("SEND")
	okEv, _ := m.EventID("OK")
	finishEv, _ := m.EventID("FINISH")
	res, err := m.StepEv(sendEv, expr.Bytes([]byte("hi")))
	if err != nil {
		t.Fatal(err)
	}
	if res.To != "Wait" || len(res.Outputs) != 1 || res.Outputs[0].Message != "Packet" {
		t.Fatalf("SEND: %+v", res)
	}
	ack := expr.Msg("Ack", map[string]expr.Value{"seq": expr.U8(0), "chk": expr.U8(0)})
	res, err = m.StepEv(okEv, ack)
	if err != nil {
		t.Fatal(err)
	}
	if res.To != "Ready" {
		t.Fatalf("OK: %+v", res)
	}
	if seq, _ := m.Var("seq"); seq.AsUint() != 1 {
		t.Errorf("seq = %d", seq.AsUint())
	}
	if _, err := m.StepEv(finishEv); err != nil {
		t.Fatal(err)
	}
	if !m.InFinal() {
		t.Error("not in final state")
	}

	// The Packet message compiles to the same layout as arq's.
	layout, err := wire.Compile(proto.Messages["Packet"])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := layout.Encode(map[string]expr.Value{
		"seq": expr.U8(7), "payload": expr.Bytes([]byte("xyz")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 7 || enc[0] != 7 {
		t.Errorf("packet encoding = %#x", enc)
	}
}

func TestParseMessageFieldForms(t *testing.T) {
	src := `protocol p {
	message M {
		a: u4
		b: u12
		c: u16 = len(body)
		crc: u32 = checksum crc32
		head: bytes[4]
		body: bytes[c]
		opts: bytes[(a + 1) * 2]
		tail: bytes[*]
	}
}`
	proto, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := proto.Messages["M"]
	if m == nil || len(m.Fields) != 8 {
		t.Fatalf("fields = %+v", m)
	}
	if m.Fields[0].Bits != 4 || m.Fields[1].Bits != 12 {
		t.Error("uint widths wrong")
	}
	if m.Fields[2].Compute == nil || m.Fields[2].Compute.Kind != wire.ComputeExpr {
		t.Error("expr compute missing")
	}
	if m.Fields[3].Compute == nil || m.Fields[3].Compute.Algo != wire.ChecksumCRC32 {
		t.Error("checksum compute missing")
	}
	if m.Fields[4].LenKind != wire.LenFixed || m.Fields[4].LenBytes != 4 {
		t.Error("fixed length wrong")
	}
	if m.Fields[5].LenKind != wire.LenField || m.Fields[5].LenField != "c" {
		t.Error("len field wrong")
	}
	if m.Fields[6].LenKind != wire.LenExpr || m.Fields[6].LenExpr == nil {
		t.Error("len expr wrong")
	}
	if m.Fields[7].LenKind != wire.LenRest {
		t.Error("rest wrong")
	}
}

func TestParseVarForms(t *testing.T) {
	src := `protocol p {
	machine M {
		var a: u8 = 7
		var b: bool = true
		var c: bytes
		init state S
		event E
		on E from S to S
	}
}`
	proto, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := proto.Machines[0]
	if len(m.Vars) != 3 {
		t.Fatalf("vars = %d", len(m.Vars))
	}
	if m.Vars[0].Init.AsUint() != 7 {
		t.Error("uint init wrong")
	}
	if !m.Vars[1].Init.AsBool() {
		t.Error("bool init wrong")
	}
	if m.Vars[2].Type.Kind != expr.KindBytes {
		t.Error("bytes var wrong")
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		frag string // expected error-message fragment
	}{
		{"empty", "", "empty input"},
		{"not protocol", "message M {", "expected 'protocol"},
		{"unclosed protocol", "protocol p {", "not closed"},
		{"junk in protocol", "protocol p {\nwibble\n}", "expected 'message'"},
		{"trailing content", "protocol p {\n}\nextra", "unexpected content"},
		{"bad field", "protocol p {\nmessage M {\nnocolon\n}\n}", "expected 'field: type'"},
		{"bad type", "protocol p {\nmessage M {\nf: float\n}\n}", "unknown field type"},
		{"u0", "protocol p {\nmessage M {\nf: u0\n}\n}", "invalid uint type"},
		{"u65", "protocol p {\nmessage M {\nf: u65\n}\n}", "invalid uint type"},
		{"computed bytes", "protocol p {\nmessage M {\nf: bytes[*] = len(x)\n}\n}", "only uint fields"},
		{"bad checksum", "protocol p {\nmessage M {\nf: u8 = checksum md5\n}\n}", "unknown checksum"},
		{"bad compute expr", "protocol p {\nmessage M {\nf: u8 = +++\n}\n}", "computed expression"},
		{"bad bytes len", "protocol p {\nmessage M {\nf: bytes[+++]\n}\n}", "length expression"},
		{"dup message", "protocol p {\nmessage M {\nf: u8\n}\nmessage M {\nf: u8\n}\n}", "duplicate message"},
		{"bad var", "protocol p {\nmachine M {\nvar x\n}\n}", "expected 'var name: type'"},
		{"bad var type", "protocol p {\nmachine M {\nvar x: Nope\n}\n}", "unknown type"},
		{"bad var init", "protocol p {\nmachine M {\nvar x: u8 = zap\n}\n}", "invalid uint literal"},
		{"bytes init", "protocol p {\nmachine M {\nvar x: bytes = 0\n}\n}", "only supported for uint and bool"},
		{"bad state", "protocol p {\nmachine M {\nstate 9bad\n}\n}", "invalid state name"},
		{"bad event params", "protocol p {\nmachine M {\nevent E(x)\n}\n}", "expected 'param: type'"},
		{"unbalanced event", "protocol p {\nmachine M {\nevent E(x: u8\n}\n}", "unbalanced"},
		{"bad transition", "protocol p {\nmachine M {\non E S to T\n}\n}", "expected 'on EVENT"},
		{"bad when", "protocol p {\nmachine M {\non E from S to T whoops x\n}\n}", "expected 'when'"},
		{"bad guard", "protocol p {\nmachine M {\non E from S to T when ((\n}\n}", "guard"},
		{"bad body stmt", "protocol p {\nmachine M {\non E from S to T {\nfrob x\n}\n}\n}", "expected 'set'"},
		{"bad set", "protocol p {\nmachine M {\non E from S to T {\nset x y\n}\n}\n}", "expected 'set var = expr'"},
		{"bad send", "protocol p {\nmachine M {\non E from S to T {\nsend M x\n}\n}\n}", "expected 'send MSG"},
		{"dup send field", "protocol p {\nmachine M {\non E from S to T {\nsend P(a: 1, a: 2)\n}\n}\n}", "duplicate field"},
		{"bad ignore", "protocol p {\nmachine M {\nignore E at S\n}\n}", "expected 'ignore EVENT in STATE'"},
		{"unclosed body", "protocol p {\nmachine M {\non E from S to T {\nset x = 1", "not closed"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tt.frag)
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q does not contain %q", err, tt.frag)
			}
			var perr *ParseError
			if !errors.As(err, &perr) {
				t.Errorf("error type %T, want *ParseError", err)
			}
		})
	}
}

func TestCompileCatchesSemanticErrors(t *testing.T) {
	t.Run("wire error", func(t *testing.T) {
		src := `protocol p {
	message M {
		a: u3
	}
}`
		_, _, err := Compile(src)
		var derr *wire.DefinitionError
		if !errors.As(err, &derr) {
			t.Errorf("err = %v, want wire.DefinitionError (3-bit message unaligned)", err)
		}
	})
	t.Run("fsm error with report", func(t *testing.T) {
		src := `protocol p {
	machine M {
		init state A
		event GO
		on GO from A to Missing
	}
}`
		_, reports, err := Compile(src)
		var cerr *fsm.CheckSpecError
		if !errors.As(err, &cerr) {
			t.Fatalf("err = %v, want CheckSpecError", err)
		}
		if len(reports) != 1 || reports[0].OK() {
			t.Error("failing report not returned")
		}
	})
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// leading comment
protocol p {   // trailing comment

	message M {
		// field comment
		f: u8
	}
}
`
	proto, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(proto.Messages["M"].Fields) != 1 {
		t.Error("comment handling broke field parse")
	}
}

func TestSplitTopLevel(t *testing.T) {
	got := splitTopLevel("a: f(x, y), b: g[1, 2], c: 3", ',')
	if len(got) != 3 || got[0] != "a: f(x, y)" || got[1] != "b: g[1, 2]" || got[2] != "c: 3" {
		t.Errorf("splitTopLevel = %q", got)
	}
	if got := splitTopLevel("", ','); len(got) != 1 || got[0] != "" {
		t.Errorf("empty split = %q", got)
	}
}

func TestGuardWithBraceBody(t *testing.T) {
	src := `protocol p {
	message N {
		v: u8
	}
	machine M {
		var x: u8
		init state A
		final state B
		event GO(n: N)
		on GO from A to B when n.v > 1 && x == 0 {
			set x = n.v
			send N(v: x + 1)
		}
		ignore GO in A
	}
}`
	// ignore+transition on same pair is a semantic error; Parse is fine.
	proto, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := proto.Machines[0].Transitions[0]
	if tr.Guard == nil || tr.Guard.String() != "(n.v > 1) && (x == 0)" {
		t.Errorf("guard = %v", tr.Guard)
	}
	if len(tr.Assigns) != 1 || len(tr.Outputs) != 1 {
		t.Errorf("body: %+v", tr)
	}
	if _, _, err := Compile(src); err == nil {
		t.Error("Compile accepted ignore overlapping a transition")
	}
}
