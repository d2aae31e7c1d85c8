package verify

import (
	"errors"
	"strings"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

func TestARQModelSatisfiesWindowInvariant(t *testing.T) {
	for _, opts := range []ARQOptions{
		{SeqSpace: 2, Capacity: 1},
		{SeqSpace: 4, Capacity: 2},
		{SeqSpace: 4, Capacity: 2, Lossy: true},
		{SeqSpace: 8, Capacity: 1, Lossy: true},
	} {
		sys, err := BuildARQ(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(sys, Options{
			MaxStates:  200000,
			Invariants: []Invariant{StopAndWaitInvariant(opts.SeqSpace)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("%+v: exploration truncated at %d states", opts, res.States)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("%+v: violations: %v", opts, res.Violations)
		}
		if res.States < 4 {
			t.Fatalf("%+v: suspiciously small state space: %d", opts, res.States)
		}
	}
}

func TestARQBrokenGuardIsCaught(t *testing.T) {
	// Removing the ack guard lets a duplicate ack advance the sender
	// twice; the window invariant must catch it with a trace.
	sys, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 2, BrokenAckGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sys, Options{
		MaxStates:  500000,
		Invariants: []Invariant{StopAndWaitInvariant(4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("seeded ack-guard bug not caught by the model checker")
	}
	v := res.Violations[0]
	if v.Kind != ViolationInvariant || v.Name != "stop-and-wait-window" {
		t.Errorf("violation = %+v", v)
	}
	if len(mustTrace(t, v)) == 0 {
		t.Error("violation has no counter-example trace")
	}
	if v.String() == "" {
		t.Error("violation renders empty")
	}
}

func TestStateSpaceGrowsWithParameters(t *testing.T) {
	// The paper's §3.3 point 1: verification cost grows with the state
	// space. Confirm monotone growth along both axes.
	count := func(seqSpace, capacity int) int {
		sys, err := BuildARQ(ARQOptions{SeqSpace: seqSpace, Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(sys, Options{MaxStates: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("truncated at seq=%d cap=%d", seqSpace, capacity)
		}
		return res.States
	}
	s2 := count(2, 1)
	s8 := count(8, 1)
	s32 := count(32, 1)
	if !(s2 < s8 && s8 < s32) {
		t.Errorf("states did not grow with seq space: %d, %d, %d", s2, s8, s32)
	}
	c1 := count(4, 1)
	c2 := count(4, 2)
	c3 := count(4, 3)
	if !(c1 < c2 && c2 < c3) {
		t.Errorf("states did not grow with capacity: %d, %d, %d", c1, c2, c3)
	}
}

func TestTruncationReported(t *testing.T) {
	sys, err := BuildARQ(ARQOptions{SeqSpace: 16, Capacity: 2, Lossy: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sys, Options{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("tiny MaxStates did not report truncation")
	}
	if res.States > 50 {
		t.Errorf("explored %d states beyond the bound", res.States)
	}
}

// handshake builds a deliberately deadlocking two-machine system: A waits
// for B's reply, but B only replies after a second request A never sends.
func handshakeDeadlock() *System {
	msgs := modelMessages()
	a := &fsm.Spec{
		Name:   "A",
		States: []fsm.State{{Name: "Start", Init: true}, {Name: "Waiting"}, {Name: "Done", Final: true}},
		Events: []fsm.Event{
			{Name: "GO"},
			{Name: "REPLY", Params: []fsm.Param{{Name: "r", Type: expr.TMsg("AckM")}}},
		},
		Transitions: []fsm.Transition{
			{From: "Start", Event: "GO", To: "Waiting",
				Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{"seq": expr.MustParse("0")}}}},
			{From: "Waiting", Event: "REPLY", To: "Done"},
		},
		Ignores: []fsm.Ignore{
			{State: "Start", Event: "REPLY"},
			{State: "Waiting", Event: "GO"},
		},
		Messages: msgs,
	}
	b := &fsm.Spec{
		Name:   "B",
		Vars:   []fsm.Var{{Name: "got", Type: expr.TU8}},
		States: []fsm.State{{Name: "Idle", Init: true}},
		Events: []fsm.Event{
			{Name: "REQ", Params: []fsm.Param{{Name: "p", Type: expr.TMsg("Pkt")}}},
		},
		Transitions: []fsm.Transition{
			// B counts requests and replies only on the second one —
			// which never comes.
			{Name: "first", From: "Idle", Event: "REQ", To: "Idle",
				Guard:   expr.MustParse("got == 0"),
				Assigns: []fsm.Assign{{Var: "got", Expr: expr.MustParse("got + 1")}}},
			{Name: "second", From: "Idle", Event: "REQ", To: "Idle",
				Guard: expr.MustParse("got == 1"),
				Outputs: []fsm.Output{{Message: "AckM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("0"),
				}}}},
		},
		Messages: msgs,
	}
	return &System{
		Specs: []*fsm.Spec{a, b},
		Routes: []Route{
			{From: 0, Message: "Pkt", To: 1, Event: "REQ", Param: "p", Capacity: 1},
			{From: 1, Message: "AckM", To: 0, Event: "REPLY", Param: "r", Capacity: 1},
		},
		Env: []EnvEvent{{Machine: 0, Event: "GO"}},
	}
}

func TestDeadlockDetection(t *testing.T) {
	res, err := Explore(handshakeDeadlock(), Options{MaxStates: 10000, CheckDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Kind == ViolationDeadlock {
			found = true
			if len(mustTrace(t, v)) == 0 {
				t.Error("deadlock without trace")
			}
		}
	}
	if !found {
		t.Fatalf("deadlock not detected; violations: %v", res.Violations)
	}
}

func TestStopAtFirstViolation(t *testing.T) {
	sys, err := BuildARQ(ARQOptions{SeqSpace: 8, Capacity: 2, BrokenAckGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Explore(sys, Options{
		MaxStates:            1 << 22,
		Invariants:           []Invariant{StopAndWaitInvariant(8)},
		StopAtFirstViolation: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation found")
	}
	full, err := Explore(sys, Options{
		MaxStates:  1 << 22,
		Invariants: []Invariant{StopAndWaitInvariant(8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.States >= full.States {
		t.Errorf("early stop explored %d states, full run %d", res.States, full.States)
	}
}

func TestExploreRejectsBrokenSpec(t *testing.T) {
	sys, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	sys.Specs[0].Transitions[0].To = "Nowhere"
	var cerr *fsm.CheckSpecError
	if _, err := Explore(sys, Options{}); !errors.As(err, &cerr) {
		t.Errorf("Explore err = %v, want CheckSpecError", err)
	}
}

func TestExploreValidation(t *testing.T) {
	if _, err := Explore(&System{}, Options{}); err == nil {
		t.Error("empty system accepted")
	}
	sys, _ := BuildARQ(ARQOptions{SeqSpace: 2, Capacity: 1})
	sys.Routes[0].To = 99
	if _, err := Explore(sys, Options{}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("bad route err = %v", err)
	}
	sys2, _ := BuildARQ(ARQOptions{SeqSpace: 2, Capacity: 1})
	sys2.Routes[0].Capacity = 0
	if _, err := Explore(sys2, Options{}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := BuildARQ(ARQOptions{SeqSpace: 1, Capacity: 1}); err == nil {
		t.Error("SeqSpace=1 accepted")
	}
	if _, err := BuildARQ(ARQOptions{SeqSpace: 2, Capacity: 0}); err == nil {
		t.Error("Capacity=0 accepted")
	}
}

// TestE4Shape compares the scaling of static checking vs model checking:
// the model checker's explored states explode multiplicatively while the
// static checker's work is fixed in the spec size. Timing lives in the
// benchmarks; here we assert the structural fact.
func TestE4Shape(t *testing.T) {
	states := make([]int, 0, 3)
	for _, n := range []int{4, 16, 64} {
		sys, err := BuildARQ(ARQOptions{SeqSpace: n, Capacity: 2})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Explore(sys, Options{MaxStates: 1 << 22})
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, res.States)

		// Static check work: the spec has the same number of states,
		// events and transitions regardless of n.
		spec := modelSender(n, false)
		report := fsm.Check(spec)
		if !report.OK() {
			t.Fatalf("model sender(%d) fails check: %v", n, report.Errors())
		}
	}
	// At least ~linear growth in the sequence space for the product.
	if !(float64(states[1]) > 2.5*float64(states[0]) && float64(states[2]) > 2.5*float64(states[1])) {
		t.Errorf("expected multiplicative growth, got %v", states)
	}
}
