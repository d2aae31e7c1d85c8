package protodsl

import (
	"strings"
	"testing"
	"time"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/verify"
	"protodsl/internal/wire"
)

// TestFacadeEndToEnd walks the quick-start path: compile the paper's
// protocol, run a machine, encode and decode a message, derive tests and
// generate code. The steps the facade does not re-export (instantiating
// a machine, compiling a message, checking a spec) run on the internal
// packages.
func TestFacadeEndToEnd(t *testing.T) {
	proto, reports, err := CompileProtocol(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	if proto.Name != "arq" || len(reports) != 2 {
		t.Fatalf("proto=%q reports=%d", proto.Name, len(reports))
	}

	// Run the sender machine through one round trip.
	machine, err := fsm.NewMachine(proto.Machines[0])
	if err != nil {
		t.Fatal(err)
	}
	sendEv, _ := machine.EventID("SEND")
	okEv, _ := machine.EventID("OK")
	res, err := machine.StepEv(sendEv, BytesValue([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	if res.To != "Wait" {
		t.Fatalf("SEND -> %s", res.To)
	}
	ack := MsgValue("Ack", map[string]Value{"seq": expr.U8(0), "chk": expr.U8(0)})
	if _, err := machine.StepEv(okEv, ack); err != nil {
		t.Fatal(err)
	}

	// Wire layer.
	layout, err := wire.Compile(proto.Messages["Packet"])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := layout.Encode(map[string]Value{"seq": expr.U8(1), "payload": BytesValue([]byte("hi"))})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := layout.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Diagram(proto.Messages["Packet"]), "chk (sum8)") {
		t.Error("diagram missing checksum annotation")
	}

	// Static checking on its own.
	if rep := fsm.Check(proto.Machines[1]); !rep.OK() {
		t.Errorf("receiver check: %v", rep.Errors())
	}

	// Inline tests.
	suite, err := GenerateTests(proto.Machines[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := RunTests(proto.Machines[0], suite); err != nil {
		t.Fatal(err)
	}
	if suite.Coverage() != 1.0 {
		t.Errorf("coverage %.2f", suite.Coverage())
	}

	// Codegen.
	code, err := Generate(proto, GenerateOptions{Package: "arqgen"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "package arqgen") {
		t.Error("generated code missing package clause")
	}
}

func TestFacadeTransferAndSim(t *testing.T) {
	payloads := [][]byte{{1}, {2}, {3}}
	res, err := RunARQTransfer(ARQConfig{
		Seed: 1,
		Link: LinkParams{Delay: time.Millisecond, LossProb: 0.2},
		RTO:  10 * time.Millisecond, MaxRetries: 30,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 3 {
		t.Fatalf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}

	gres, err := RunGBNTransfer(GBNConfig{
		Seed: 1, Window: 4,
		Link: LinkParams{Delay: time.Millisecond},
	}, payloads)
	if err != nil || !gres.OK {
		t.Fatalf("gbn: %v ok=%v", err, gres.OK)
	}

	// Raw simulator access.
	sim := netsim.New(7)
	a, err := sim.NewEndpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.NewEndpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	sim.Connect(a, b, LinkParams{Delay: time.Millisecond})
	got := 0
	b.SetHandler(func(netsim.Addr, []byte) { got++ })
	if err := a.Send(b.Addr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := sim.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("delivered %d", got)
	}
}

func TestFacadeModelCheck(t *testing.T) {
	// Compose a one-machine system from the DSL and explore it.
	proto, _, err := CompileProtocol(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	receiver, ok := proto.Machine("Receiver")
	if !ok {
		t.Fatal("no Receiver")
	}
	// The two-machine ARQ system is exercised in internal/verify; here
	// just confirm a compiled machine feeds the checker: with no stimuli
	// the receiver alone has exactly its initial state.
	res, err := verify.Explore(&verify.System{Specs: []*Spec{receiver}}, verify.Options{MaxStates: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.States != 1 {
		t.Errorf("states = %d, want 1 (no stimuli)", res.States)
	}
}

func TestFacadeBehaviourHooks(t *testing.T) {
	ctrl, err := NewRateController(10, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateStream(SteppedCapacity([]float64{80, 20}, 10), FuzzySender{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 20 {
		t.Errorf("steps = %d", len(res.Steps))
	}

	tres, err := RunTrustRouting(TrustConfig{
		Relays: 4, AdversarialFraction: 0.5, Strategy: TrustStrategyLearn,
		Messages: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tres.SuccessRate <= 0 || tres.SuccessRate > 1 {
		t.Errorf("success rate = %.3f", tres.SuccessRate)
	}

	codec, err := NewIPv4Codec()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.Encode(IPv4Header{
		Version: 4, IHL: 5, TotalLength: 20, TTL: 1, Protocol: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 20 {
		t.Errorf("header = %d bytes", len(enc))
	}
	if !strings.Contains(IPv4Diagram(), "header_checksum") {
		t.Error("diagram broken")
	}
}

func TestFacadeParseErrors(t *testing.T) {
	if _, err := dsl.Parse("not a protocol"); err == nil {
		t.Error("junk accepted")
	}
	_, _, err := CompileProtocol(`protocol p {
	machine M {
		init state A
		event GO
		on GO from A to Missing
	}
}`)
	if err == nil {
		t.Error("unsound protocol compiled")
	}
}
