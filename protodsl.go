// Package protodsl is a domain-specific language for defining, checking,
// executing and generating code for network protocols — a Go realisation
// of "Domain Specific Languages (DSLs) for Network Protocols" (Bhatti,
// Brady, Hammond, McKinna; ICDCS 2009).
//
// A protocol definition integrates, in one artefact (§3.2 of the paper):
//
//  1. message structure — bit-level wire layouts with computed lengths
//     and checksums (the role ASCII pictures, ABNF and ASN.1 play today);
//  2. behaviour — states, events and guarded transitions over typed
//     variables;
//  3. execution — an interpreter (and a code generator) that can only
//     run transitions the checked specification declares.
//
// Definitions are "correct by construction": CompileProtocol statically
// verifies soundness (every transition well-formed and well-typed),
// completeness (every state handles or explicitly ignores every event),
// determinism, reachability and liveness, and the execution and
// code-generation layers refuse definitions that fail. Received messages
// are only obtainable as validation witnesses, so unverified data cannot
// reach protocol logic — the paper's ChkPacket discipline.
//
// # Quick start
//
//	proto, reports, err := protodsl.CompileProtocol(src) // src is .pdsl text
//	if err != nil { ... }
//	machine, err := proto.NewMachine(proto.Machines[0].Name)
//	send, _ := machine.EventID("SEND")
//	res, err := machine.StepEv(send, protodsl.BytesValue(data))
//
// See examples/quickstart for a complete program, examples/arqfiletransfer
// for the paper's §3.4 ARQ protocol running over a lossy simulated link,
// and DESIGN.md for the full system inventory.
package protodsl

import (
	"protodsl/internal/codegen"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/testgen"
	"protodsl/internal/wire"
)

// ---- The surface DSL ----

// Protocol is a parsed protocol definition: wire messages plus machines.
type Protocol = dsl.Protocol

// CompileProtocol parses and statically checks .pdsl source: every
// message must compile to a wire layout and every machine must pass the
// soundness/completeness/determinism/reachability/liveness checks.
// The per-machine check reports are returned for diagnostics.
func CompileProtocol(src string) (*Protocol, []*Report, error) { return dsl.Compile(src) }

// ---- Wire formats ----

// Message is a wire-format message definition.
type Message = wire.Message

// Diagram renders an RFC791-style ASCII picture of the message layout
// (the paper's Figure 1, regenerated from the definition).
func Diagram(m *Message) string { return wire.Diagram(m) }

// ---- Behaviour specifications ----

// Spec is a machine specification: states, events, guarded transitions.
type Spec = fsm.Spec

// Report is the result of statically checking a Spec.
type Report = fsm.Report

// ---- Values ----

// Value is a runtime value of the expression language (event arguments,
// machine variables, message fields).
type Value = expr.Value

// Value constructors.
var (
	// U16 returns a 16-bit unsigned value.
	U16 = expr.U16
	// U32 returns a 32-bit unsigned value.
	U32 = expr.U32
	// BytesValue returns a byte-slice value.
	BytesValue = expr.Bytes
	// MsgValue returns a message value.
	MsgValue = expr.Msg
)

// ---- Code generation ----

// GenerateOptions configures Go code generation.
type GenerateOptions = codegen.Options

// Generate emits Go source for a compiled protocol: typed message
// structs with inline codecs and witness types, plus one struct type per
// machine state with transition methods (invalid transitions are Go
// compile errors).
func Generate(proto *Protocol, opts GenerateOptions) ([]byte, error) {
	return codegen.Generate(proto, opts)
}

// ---- Inline testing (§2.3) ----

// TestSuite is an automatically generated behavioural test suite.
type TestSuite = testgen.Suite

// GenerateTests derives a behavioural test suite from a checked spec.
func GenerateTests(s *Spec) (*TestSuite, error) {
	return testgen.Generate(s, testgen.Options{})
}

// RunTests replays a generated suite against a spec.
func RunTests(s *Spec, suite *TestSuite) error { return testgen.Run(s, suite) }

// ---- Network simulation ----

// LinkParams configures loss, delay, duplication, corruption, reordering
// and bandwidth for one link direction.
type LinkParams = netsim.LinkParams
