package gen_test

import (
	"fmt"
	"testing"

	"protodsl/examples/specs"
	gen "protodsl/internal/arq/gen"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/genrt"
	"protodsl/internal/testgen"
)

// senderFlat adapts the AOT-generated SenderMachine to testgen.FlatMachine:
// string event names and expr values in, genrt outcomes out.
type senderFlat struct {
	m gen.SenderMachine
}

func (s *senderFlat) Reset()            { s.m.Reset() }
func (s *senderFlat) StateName() string { return s.m.StateName() }

func (s *senderFlat) Deliver(event string, args map[string]expr.Value) (genrt.StepOutcome, error) {
	switch event {
	case "SEND":
		return s.m.SEND(args["data"].AsBytes())
	case "OK":
		seq, ok := args["ack"].Field("seq")
		if !ok {
			return genrt.StepNone, fmt.Errorf("OK args missing ack.seq")
		}
		return s.m.OK(&gen.Ack{Seq: uint8(seq.AsUint())})
	case "FAIL":
		return s.m.FAIL()
	case "TIMEOUT":
		return s.m.TIMEOUT()
	case "RETRY":
		return s.m.RETRY()
	case "FINISH":
		return s.m.FINISH()
	default:
		return genrt.StepNone, fmt.Errorf("unknown sender event %q", event)
	}
}

func (s *senderFlat) TransitionName(out genrt.StepOutcome) string {
	return gen.SenderTransitionNames[out]
}

// receiverFlat adapts the generated ReceiverMachine the same way.
type receiverFlat struct {
	m gen.ReceiverMachine
}

func (r *receiverFlat) Reset()            { r.m.Reset() }
func (r *receiverFlat) StateName() string { return r.m.StateName() }

func (r *receiverFlat) Deliver(event string, args map[string]expr.Value) (genrt.StepOutcome, error) {
	switch event {
	case "RECV":
		p, ok := args["p"].Field("seq")
		if !ok {
			return genrt.StepNone, fmt.Errorf("RECV args missing p.seq")
		}
		payload, _ := args["p"].Field("payload")
		return r.m.RECV(&gen.Packet{Seq: uint8(p.AsUint()), Payload: payload.AsBytes()})
	case "CLOSE":
		return r.m.CLOSE()
	default:
		return genrt.StepNone, fmt.Errorf("unknown receiver event %q", event)
	}
}

func (r *receiverFlat) TransitionName(out genrt.StepOutcome) string {
	return gen.ReceiverTransitionNames[out]
}

// TestFlatMachinesReplayGeneratedSuites derives behavioural suites from
// the DSL-compiled ARQ specs and replays them against the AOT-generated
// flat machines: the generated dispatch tables must agree with the
// interpreted spec on every fired transition, rejection and ignore.
func TestFlatMachinesReplayGeneratedSuites(t *testing.T) {
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	flats := map[string]testgen.FlatMachine{
		"Sender":   &senderFlat{},
		"Receiver": &receiverFlat{},
	}
	for _, spec := range proto.Machines {
		flat, ok := flats[spec.Name]
		if !ok {
			t.Fatalf("no flat adapter for machine %q", spec.Name)
		}
		suite, err := testgen.Generate(spec, testgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if suite.Count(testgen.KindFire) == 0 {
			t.Fatalf("%s: suite has no firing cases", spec.Name)
		}
		// The interpreter must accept its own suite...
		if err := testgen.Run(spec, suite); err != nil {
			t.Fatalf("%s: interpreter replay: %v", spec.Name, err)
		}
		// ...and the generated flat machine must agree case for case.
		if err := testgen.RunFlat(suite, flat); err != nil {
			t.Errorf("%s: flat replay: %v", spec.Name, err)
		}
		t.Logf("%s: replayed %d cases (%d fire, %d reject, %d ignore, %.0f%% transition coverage)",
			spec.Name, len(suite.Cases),
			suite.Count(testgen.KindFire), suite.Count(testgen.KindReject), suite.Count(testgen.KindIgnore),
			100*suite.Coverage())
	}
}

// TestFlatReplayCatchesDivergence sabotages the adapter to prove RunFlat
// actually compares outcomes: remapping an event must fail the replay.
func TestFlatReplayCatchesDivergence(t *testing.T) {
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	var spec = proto.Machines[0] // Sender
	suite, err := testgen.Generate(spec, testgen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := testgen.RunFlat(suite, &saboteur{}); err == nil {
		t.Fatal("sabotaged adapter passed replay")
	}
}

// saboteur swallows every event as ignored.
type saboteur struct{ senderFlat }

func (s *saboteur) Deliver(string, map[string]expr.Value) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}
