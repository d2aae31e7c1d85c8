package arq

import (
	"fmt"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/fsm"
)

// Sender/receiver event and state names, exported so callers and tests
// speak the spec's vocabulary.
const (
	// Sender states (the paper's SendSt).
	StReady   = "Ready"
	StTimeout = "Timeout"
	StSent    = "Sent"

	// Sender events (the paper's SendTrans constructors).
	EvSend    = "SEND"
	EvOK      = "OK"
	EvFail    = "FAIL"
	EvTimeout = "TIMEOUT"
	EvRetry   = "RETRY"
	EvFinish  = "FINISH"

	// Receiver events.
	EvRecv  = "RECV"
	EvClose = "CLOSE"
)

// arqSpec is the loader of arq.pdsl, compiled and checked once per
// process: the windowed engines' Codec runs the Packet and Ack layouts
// it compiles, and the stop-and-wait engines refuse to start unless it
// loads (their machines and codec are generated from the same text).
var arqSpec = dsl.Load(specs.ARQ)

// SenderSpec returns the paper's ARQ sender machine, the Sender of
// arq.pdsl:
//
//	data SendTrans : SendSt → SendSt → ⋆ where
//	  SEND    : ListByte → SendTrans (Ready seq) (Wait seq)
//	  OK      : ChkPacket … → SendTrans (Wait seq) (Ready (seq+1))
//	  FAIL    : SendTrans (Wait seq) (Ready seq)
//	  TIMEOUT : SendTrans (Wait seq) (Timeout seq)
//	  FINISH  : SendTrans (Ready seq) (Sent seq)
//
// plus RETRY : Timeout → Ready, the host-policy escape that makes the
// machine "ready to try again" after a timeout (§3.4).
//
// The OK transition's ChkPacket argument is modelled by the guard
// `ack.seq == seq` over a *validated* Ack: the machine only ever sees
// acks that passed the validating decoder, so the dependent-type
// precondition "verified packet" is established before the event is
// raised.
//
// Each call parses the embedded text afresh, so the caller owns the
// spec and may mutate it; the engines' machines are unaffected.
func SenderSpec() *fsm.Spec { return parsedMachine("Sender") }

// ReceiverSpec returns the paper's receiver, the Receiver of arq.pdsl:
//
//	RECV : (seq : Byte) → (data : ListByte) →
//	       CheckPacket … → RecvTrans (ReadyFor seq) (ReadyFor (seq+1))
//
// extended with the duplicate-ack reply for retransmitted packets (the
// paper's receiver "will reject a packet"; re-acknowledging the rejected
// duplicate is what lets the sender make progress when acks are lost) and
// a CLOSE event to a final state so consistent termination is checkable.
// Like SenderSpec, it returns a fresh spec the caller owns.
func ReceiverSpec() *fsm.Spec { return parsedMachine("Receiver") }

// parsedMachine parses the embedded arq.pdsl and returns one machine.
// The text is part of the binary and compiles (arqSpec and the tests
// check it), so a failure here is a build defect and panics.
func parsedMachine(name string) *fsm.Spec {
	proto, err := dsl.Parse(specs.ARQ)
	if err != nil {
		panic(fmt.Sprintf("arq: parsing arq.pdsl: %v", err))
	}
	spec, ok := proto.Machine(name)
	if !ok {
		panic("arq: arq.pdsl has no machine " + name)
	}
	return spec
}
