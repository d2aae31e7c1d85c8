package verify

import (
	"testing"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// TestModelCheckDSLCompiledARQ closes the loop between the surface DSL
// and the model checker: the machines model-checked here are the *same
// artefacts* that execute in the interpreter and feed the code generator
// — compiled from specs.ARQ, not hand-built models. This is the
// paper's §3.3 point 2 inverted: because our model IS the implementation
// source, there is no transcription gap for the checker to miss.
func TestModelCheckDSLCompiledARQ(t *testing.T) {
	proto, _, err := dsl.Compile(specs.ARQ)
	if err != nil {
		t.Fatal(err)
	}
	sender, ok := proto.Machine("Sender")
	if !ok {
		t.Fatal("no Sender")
	}
	receiver, ok := proto.Machine("Receiver")
	if !ok {
		t.Fatal("no Receiver")
	}

	payload := expr.Bytes([]byte{0xAB})
	sys := &System{
		Specs: []*fsm.Spec{sender, receiver},
		Routes: []Route{
			{From: 0, Message: "Packet", To: 1, Event: "RECV", Param: "p", Capacity: 1, Lossy: true},
			{From: 1, Message: "Ack", To: 0, Event: "OK", Param: "ack", Capacity: 1, Lossy: true},
		},
		Env: []EnvEvent{
			{Machine: 0, Event: "SEND", Args: []map[string]expr.Value{{"data": payload}}},
			{Machine: 0, Event: "TIMEOUT"},
			{Machine: 0, Event: "FAIL"},
			{Machine: 0, Event: "RETRY"},
			{Machine: 0, Event: "FINISH"},
			{Machine: 1, Event: "CLOSE"},
		},
	}

	res, err := Explore(sys, Options{
		MaxStates: 30000,
		Invariants: []Invariant{
			StopAndWaitInvariant(256),
			readsInvariant("sender-states-declared", nil, []int{0}, func(_ []uint64, st []string) error {
				switch st[0] {
				case "Ready", "Wait", "Timeout", "Sent":
					return nil
				}
				return errInvalidState(st[0])
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("DSL-compiled ARQ violates properties: %v", res.Violations)
	}
	if res.States < 100 {
		t.Fatalf("suspiciously small explored space: %d", res.States)
	}
	t.Logf("explored %d states, %d transitions (truncated=%v) with zero violations",
		res.States, res.Transitions, res.Truncated)
}

type errInvalidState string

func (e errInvalidState) Error() string { return "undeclared sender state " + string(e) }
