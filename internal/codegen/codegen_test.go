package codegen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

func compileARQ(t *testing.T) *dsl.Protocol {
	t.Helper()
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	return proto
}

// TestGeneratedFilesAreCurrent guards against drift between the canonical
// DSL sources and the committed generated packages. Regenerate with:
//
//	go generate ./...
func TestGeneratedFilesAreCurrent(t *testing.T) {
	targets := []struct {
		src  string
		path string
	}{
		{specs.ARQ, filepath.Join("..", "arq", "gen", "arq_gen.go")},
		{specs.IPv4, filepath.Join("..", "ipv4", "gen", "ipv4_gen.go")},
	}
	for _, target := range targets {
		proto, _, err := dsl.Compile(target.src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Generate(proto, Options{Package: "gen"})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(target.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s is stale; run `go generate ./...`", target.path)
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	proto := compileARQ(t)
	src, err := Generate(proto, Options{Package: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	for _, want := range []string{
		"// Code generated by pdslc",
		"type Packet struct {",
		"type CheckedPacket struct {",
		"func EncodePacket(m Packet) ([]byte, error)",
		"func DecodePacket(data []byte) (CheckedPacket, error)",
		"type SenderReady struct {",
		"type SenderWait struct {",
		"func NewSender() SenderReady",
		"func (s SenderReady) Send(data []byte) (SenderWait, Packet, error)",
		"func (s SenderWait) Ack(ack CheckedAck) (SenderReady, error)",
		"func (s SenderWait) Timeout() (SenderTimeout, error)",
		"func (s SenderReady) Finish() (SenderSent, error)",
		"func (s ReceiverReadyFor) Accept(p CheckedPacket) (ReceiverReadyFor, Ack, error)",
		"func (s ReceiverReadyFor) Dupack(p CheckedPacket) (ReceiverReadyFor, Ack, error)",
		"genrt.ErrGuardFailed",
		"genrt.ErrUnverified",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
	// The compile-time property: no transition method exists from Sent
	// (final) and no Timeout method exists on Ready.
	for _, absent := range []string{
		"func (s SenderSent)",
		"func (s SenderReady) Timeout",
		"func (s SenderReady) Ack",
	} {
		if strings.Contains(code, absent) {
			t.Errorf("generated code contains illegal transition %q", absent)
		}
	}
}

// TestGenerateSpecFiles: every .pdsl under examples/specs, and the
// name-collision input in testdata, must lower to a package that
// type-checks — not merely generate without error.
func TestGenerateSpecFiles(t *testing.T) {
	for _, in := range generateInputs(t) {
		if _, err := checkGenerated(t, in.path+".go", in.src); err != nil {
			t.Errorf("%s: generated package does not type-check: %v", in.path, err)
		}
	}
}

// TestGenerateFlatMachines pins the flat-dispatch layer's shape.
func TestGenerateFlatMachines(t *testing.T) {
	src, err := Generate(compileARQ(t), Options{Package: "gen"})
	if err != nil {
		t.Fatal(err)
	}
	code := string(src)
	for _, want := range []string{
		"type SenderMachine struct {",
		"func NewSenderMachine() SenderMachine {",
		"func (m *SenderMachine) SEND(data []byte) (genrt.StepOutcome, error)",
		"func (m *SenderMachine) OK(ack *Ack) (genrt.StepOutcome, error)",
		"var senderOKTab = [SenderNumStates]func(*SenderMachine, *Ack) (genrt.StepOutcome, error){",
		"SenderTrAck     genrt.StepOutcome = 1",
		"OutPacket Packet",
		"type ReceiverMachine struct {",
		"return genrt.StepNone, genrt.ErrNoTransition",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateRefusals(t *testing.T) {
	t.Run("no package", func(t *testing.T) {
		if _, err := Generate(compileARQ(t), Options{}); err == nil {
			t.Error("empty package accepted")
		}
	})
	t.Run("unchecked spec", func(t *testing.T) {
		proto := compileARQ(t)
		proto.Machines[0].Transitions[0].To = "Nowhere"
		if _, err := Generate(proto, Options{Package: "gen"}); err == nil {
			t.Error("broken spec accepted — codegen must refuse unsound machines")
		}
	})
	t.Run("unnamed transition", func(t *testing.T) {
		proto := compileARQ(t)
		proto.Machines[0].Transitions[0].Name = ""
		if _, err := Generate(proto, Options{Package: "gen"}); err == nil {
			t.Error("unnamed transition accepted")
		}
	})
	t.Run("duplicate transition name", func(t *testing.T) {
		proto := compileARQ(t)
		// finish and send are both on Ready; rename finish to send.
		for i := range proto.Machines[0].Transitions {
			if proto.Machines[0].Transitions[i].Name == "finish" {
				proto.Machines[0].Transitions[i].Name = "send"
			}
		}
		if _, err := Generate(proto, Options{Package: "gen"}); err == nil {
			t.Error("duplicate method name accepted")
		}
	})
	t.Run("division by variable", func(t *testing.T) {
		proto := compileARQ(t)
		s := proto.Machines[0]
		for i := range s.Transitions {
			if s.Transitions[i].Name == "ack" {
				s.Transitions[i].Assigns = []fsm.Assign{
					{Var: "seq", Expr: expr.MustParse("seq / seq")},
				}
			}
		}
		_, err := Generate(proto, Options{Package: "gen"})
		if err == nil || !strings.Contains(err.Error(), "divisor") {
			t.Errorf("err = %v, want literal-divisor refusal", err)
		}
	})
	t.Run("unsupported builtin", func(t *testing.T) {
		proto := compileARQ(t)
		s := proto.Machines[0]
		for i := range s.Transitions {
			if s.Transitions[i].Name == "ack" {
				s.Transitions[i].Assigns = []fsm.Assign{
					{Var: "seq", Expr: expr.MustParse("sum8(seq)")},
				}
			}
		}
		if _, err := Generate(proto, Options{Package: "gen"}); err == nil {
			t.Error("sum8 in machine expr accepted")
		}
	})
}

func TestGoNaming(t *testing.T) {
	tests := map[string]string{
		"seq":             "Seq",
		"header_checksum": "HeaderChecksum",
		"fragment_offset": "FragmentOffset",
		"a":               "A",
		"already_Camel":   "AlreadyCamel",
	}
	for in, want := range tests {
		if got := goName(in); got != want {
			t.Errorf("goName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExprTranslation(t *testing.T) {
	tr := &goTranslator{
		vars: map[string]varBinding{
			"seq":  {code: "s.Vars.Seq", typ: expr.TU8},
			"big":  {code: "s.Vars.Big", typ: expr.TU32},
			"data": {code: "data", typ: expr.TBytes},
			"on":   {code: "s.Vars.On", typ: expr.TBool},
		},
	}
	tests := []struct {
		src      string
		want     string
		wantBits int
	}{
		{"seq + 1", "(s.Vars.Seq + 1)", 8},
		{"seq + 256", "(uint16(s.Vars.Seq) + 256)", 16},
		{"seq + big", "(uint32(s.Vars.Seq) + s.Vars.Big)", 32},
		{"seq == 255", "(uint64(s.Vars.Seq) == uint64(255))", 0},
		{"(seq + 1) % 4", "((s.Vars.Seq + 1) % 4)", 8},
		{"len(data)", "uint32(len(data))", 32},
		{"u16(seq)", "uint16(s.Vars.Seq)", 16},
		{"!on", "(!s.Vars.On)", 0},
		{"-seq", "(-s.Vars.Seq)", 8},
		{"seq << 2", "(s.Vars.Seq << uint64(2))", 8},
		{"min(seq, big)", "min(uint32(s.Vars.Seq), s.Vars.Big)", 32},
	}
	for _, tt := range tests {
		t.Run(tt.src, func(t *testing.T) {
			code, typ, err := tr.translate(expr.MustParse(tt.src))
			if err != nil {
				t.Fatal(err)
			}
			if code != tt.want {
				t.Errorf("code = %s, want %s", code, tt.want)
			}
			if tt.wantBits != 0 && typ.Bits != tt.wantBits {
				t.Errorf("bits = %d, want %d", typ.Bits, tt.wantBits)
			}
		})
	}
}

func TestExprTranslationErrors(t *testing.T) {
	tr := &goTranslator{vars: map[string]varBinding{
		"seq": {code: "s.Vars.Seq", typ: expr.TU8},
	}}
	for _, src := range []string{
		"unknown",
		"seq / seq",
		"seq % (seq - seq)",
		"inet16(seq)",
		"seq.field",
	} {
		if _, _, err := tr.translate(expr.MustParse(src)); err == nil {
			t.Errorf("translate(%q) succeeded, want error", src)
		}
	}
}
