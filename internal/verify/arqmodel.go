package verify

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/wire"
)

// ARQOptions parameterises the model-checking variant of the paper's ARQ
// protocol. SeqSpace scales the sequence-number domain and Capacity the
// channel bound — the two axes along which experiment E4 grows the
// product state space.
type ARQOptions struct {
	// SeqSpace is the sequence-number modulus (>= 2).
	SeqSpace int
	// Capacity bounds each channel's in-flight messages (>= 1).
	Capacity int
	// Lossy adds nondeterministic message drops on both channels.
	Lossy bool
	// BrokenAckGuard removes the ack sequence guard — a seeded protocol
	// bug the stop-and-wait window invariant catches.
	BrokenAckGuard bool
}

// modelMessages are payload-free abstractions of the ARQ packets: the
// model checker cares about sequence numbers, not payload bytes.
func modelMessages() map[string]*wire.Message {
	return map[string]*wire.Message{
		"Pkt": {Name: "Pkt", Fields: []wire.Field{
			{Name: "seq", Kind: wire.FieldUint, Bits: 8},
		}},
		"AckM": {Name: "AckM", Fields: []wire.Field{
			{Name: "seq", Kind: wire.FieldUint, Bits: 8},
		}},
	}
}

// modelSender builds the sender machine with seq arithmetic mod n.
func modelSender(n int, broken bool) *fsm.Spec {
	inc := fmt.Sprintf("(seq + 1) %% %d", n)
	ackGuard := expr.MustParse("a.seq == seq")
	spec := &fsm.Spec{
		Name: fmt.Sprintf("ModelSender%d", n),
		Vars: []fsm.Var{{Name: "seq", Type: expr.TU8}},
		States: []fsm.State{
			{Name: "Ready", Init: true},
			{Name: "Wait"},
			{Name: "Done", Final: true},
		},
		Events: []fsm.Event{
			{Name: "SEND"},
			{Name: "ACK", Params: []fsm.Param{{Name: "a", Type: expr.TMsg("AckM")}}},
			{Name: "TIMEOUT"},
			{Name: "FINISH"},
		},
		Transitions: []fsm.Transition{
			{Name: "send", From: "Ready", Event: "SEND", To: "Wait",
				Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("seq"),
				}}}},
			{Name: "ack", From: "Wait", Event: "ACK", To: "Ready",
				Guard:   ackGuard,
				Assigns: []fsm.Assign{{Var: "seq", Expr: expr.MustParse(inc)}}},
			{Name: "rexmit", From: "Wait", Event: "TIMEOUT", To: "Wait",
				Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("seq"),
				}}}},
			{Name: "finish", From: "Ready", Event: "FINISH", To: "Done"},
		},
		Ignores: []fsm.Ignore{
			{State: "Ready", Event: "ACK"},
			{State: "Ready", Event: "TIMEOUT"},
			{State: "Wait", Event: "SEND"},
			{State: "Wait", Event: "FINISH"},
		},
		Messages: modelMessages(),
	}
	if broken {
		spec.Transitions[1].Guard = nil // accept any ack: the seeded bug
	}
	return spec
}

// modelReceiver builds the receiver machine with seq arithmetic mod n.
func modelReceiver(n int) *fsm.Spec {
	inc := fmt.Sprintf("(seq + 1) %% %d", n)
	return &fsm.Spec{
		Name: fmt.Sprintf("ModelReceiver%d", n),
		Vars: []fsm.Var{{Name: "seq", Type: expr.TU8}},
		States: []fsm.State{
			{Name: "Recv", Init: true},
		},
		Events: []fsm.Event{
			{Name: "RECV", Params: []fsm.Param{{Name: "p", Type: expr.TMsg("Pkt")}}},
		},
		Transitions: []fsm.Transition{
			{Name: "accept", From: "Recv", Event: "RECV", To: "Recv",
				Guard:   expr.MustParse("p.seq == seq"),
				Assigns: []fsm.Assign{{Var: "seq", Expr: expr.MustParse(inc)}},
				Outputs: []fsm.Output{{Message: "AckM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("p.seq"),
				}}}},
			{Name: "dupack", From: "Recv", Event: "RECV", To: "Recv",
				Guard: expr.MustParse("p.seq != seq"),
				Outputs: []fsm.Output{{Message: "AckM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("p.seq"),
				}}}},
		},
		Messages: modelMessages(),
	}
}

// BuildARQ assembles the closed sender/receiver system used by the model
// checker: sender index 0, receiver index 1, a data route and an ack
// route with the configured capacity.
func BuildARQ(opts ARQOptions) (*System, error) {
	if opts.SeqSpace < 2 {
		return nil, fmt.Errorf("verify: SeqSpace must be >= 2, got %d", opts.SeqSpace)
	}
	if opts.Capacity < 1 {
		return nil, fmt.Errorf("verify: Capacity must be >= 1, got %d", opts.Capacity)
	}
	return &System{
		Specs: []*fsm.Spec{
			modelSender(opts.SeqSpace, opts.BrokenAckGuard),
			modelReceiver(opts.SeqSpace),
		},
		Routes: []Route{
			{From: 0, Message: "Pkt", To: 1, Event: "RECV", Param: "p",
				Capacity: opts.Capacity, Lossy: opts.Lossy},
			{From: 1, Message: "AckM", To: 0, Event: "ACK", Param: "a",
				Capacity: opts.Capacity, Lossy: opts.Lossy},
		},
		Env: []EnvEvent{
			{Machine: 0, Event: "SEND"},
			{Machine: 0, Event: "TIMEOUT"},
			{Machine: 0, Event: "FINISH"},
		},
	}, nil
}

// StopAndWaitInvariant is the classic window invariant for stop-and-wait:
// the receiver's expected sequence number is never more than one step
// (mod seqSpace) ahead of the sender's.
func StopAndWaitInvariant(seqSpace int) Invariant {
	return readsInvariant("stop-and-wait-window", []varRef{{0, "seq"}, {1, "seq"}}, nil,
		func(u []uint64, _ []string) error {
			send, recv := u[0], u[1]
			diff := (recv + uint64(seqSpace) - send) % uint64(seqSpace)
			if diff > 1 {
				return fmt.Errorf("receiver seq %d is %d ahead of sender seq %d", recv, diff, send)
			}
			return nil
		})
}
