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
//	machine, err := protodsl.NewMachine(proto.Machines[0])
//	res, err := machine.Step("SEND", args)
//
// See examples/quickstart for a complete program, examples/arqfiletransfer
// for the paper's §3.4 ARQ protocol running over a lossy simulated link,
// and DESIGN.md for the full system inventory.
package protodsl

import (
	"protodsl/examples/specs"
	"protodsl/internal/codegen"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/testgen"
	"protodsl/internal/verify"
	"protodsl/internal/wire"
)

// ---- The surface DSL ----

// Protocol is a parsed protocol definition: wire messages plus machines.
type Protocol = dsl.Protocol

// ParseError reports a DSL syntax error with its line number.
type ParseError = dsl.ParseError

// ARQSource is the canonical .pdsl text of the paper's §3.4 stop-and-wait
// ARQ protocol: examples/specs/arq.pdsl, embedded.
var ARQSource = specs.ARQ

// ParseProtocol parses .pdsl source without semantic checking.
func ParseProtocol(src string) (*Protocol, error) { return dsl.Parse(src) }

// CompileProtocol parses and statically checks .pdsl source: every
// message must compile to a wire layout and every machine must pass the
// soundness/completeness/determinism/reachability/liveness checks.
// The per-machine check reports are returned for diagnostics.
func CompileProtocol(src string) (*Protocol, []*Report, error) { return dsl.Compile(src) }

// ---- Wire formats ----

// Message is a wire-format message definition.
type Message = wire.Message

// Field is one field of a message.
type Field = wire.Field

// Layout is a compiled, validated message layout.
type Layout = wire.Layout

// CompileMessage validates a message definition and returns its layout.
func CompileMessage(m *Message) (*Layout, error) { return wire.Compile(m) }

// Diagram renders an RFC791-style ASCII picture of the message layout
// (the paper's Figure 1, regenerated from the definition).
func Diagram(m *Message) string { return wire.Diagram(m) }

// ---- Behaviour specifications ----

// Spec is a machine specification: states, events, guarded transitions.
type Spec = fsm.Spec

// Report is the result of statically checking a Spec.
type Report = fsm.Report

// Issue is a single static-check finding.
type Issue = fsm.Issue

// Machine executes a checked Spec (the paper's execTrans interpreter).
type Machine = fsm.Machine

// StepResult describes the effect of delivering one event.
type StepResult = fsm.StepResult

// Check statically verifies a machine specification.
func Check(s *Spec) *Report { return fsm.Check(s) }

// NewMachine checks the spec, compiles it to a Program, and instantiates
// it in its initial state.
func NewMachine(s *Spec) (*Machine, error) { return fsm.NewMachine(s) }

// ---- Compiled execution engine ----

// Program is a compiled machine specification: a flat state×event
// dispatch table of pre-compiled guard/assignment/output closures that
// the interpreter executes directly. Machines returned by NewMachine run
// on a Program; CompileSpec exposes the compilation step so a spec can
// be compiled once and instantiated many times (Program.NewMachine).
type Program = fsm.Program

// CompileSpec checks a machine specification and compiles it into an
// executable Program.
func CompileSpec(s *Spec) (*Program, error) { return fsm.CompileSpec(s) }

// ScopeLayout assigns frame slot indices to expression variables for
// compiled evaluation.
type ScopeLayout = expr.ScopeLayout

// NewScopeLayout returns an empty slot layout.
func NewScopeLayout() *ScopeLayout { return expr.NewScopeLayout() }

// Frame holds the runtime values of a compiled-expression scope.
type Frame = expr.Frame

// CompiledExpr is a compiled expression closure.
type CompiledExpr = expr.Compiled

// ExprNode is a node of the guard/action expression language's AST.
type ExprNode = expr.Expr

// ParseExpr parses expression source text (guards, computed fields).
func ParseExpr(src string) (ExprNode, error) { return expr.Parse(src) }

// CompileExpr lowers a checked expression to a closure over slot-indexed
// frames. Compiled evaluation is observationally identical to the
// tree-walking interpreter but several times faster (no scope-map
// lookups, no per-eval allocations).
func CompileExpr(e ExprNode, layout *ScopeLayout) CompiledExpr { return expr.Compile(e, layout) }

// ---- Values ----

// Value is a runtime value of the expression language (event arguments,
// machine variables, message fields).
type Value = expr.Value

// Value constructors.
var (
	// U8 returns an 8-bit unsigned value.
	U8 = expr.U8
	// U16 returns a 16-bit unsigned value.
	U16 = expr.U16
	// U32 returns a 32-bit unsigned value.
	U32 = expr.U32
	// U64 returns a 64-bit unsigned value.
	U64 = expr.U64
	// BytesValue returns a byte-slice value.
	BytesValue = expr.Bytes
	// BoolValue returns a boolean value.
	BoolValue = expr.Bool
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

// TestCase is one generated behavioural test.
type TestCase = testgen.Case

// GenerateTests derives a behavioural test suite from a checked spec.
func GenerateTests(s *Spec) (*TestSuite, error) {
	return testgen.Generate(s, testgen.Options{})
}

// RunTests replays a generated suite against a spec.
func RunTests(s *Spec, suite *TestSuite) error { return testgen.Run(s, suite) }

// ---- Model checking (the §3.3 comparison baseline) ----

// System is a closed composition of machines for model checking.
type System = verify.System

// ExploreOptions bounds model-checker exploration.
type ExploreOptions = verify.Options

// ExploreResult summarises an exploration.
type ExploreResult = verify.Result

// Explore runs the explicit-state model checker over a system.
func Explore(sys *System, opts ExploreOptions) (*ExploreResult, error) {
	return verify.Explore(sys, opts)
}

// ---- Network simulation ----

// Sim is the deterministic discrete-event network simulator.
type Sim = netsim.Sim

// LinkParams configures loss, delay, duplication, corruption, reordering
// and bandwidth for one link direction.
type LinkParams = netsim.LinkParams

// Endpoint is a simulator network attachment.
type Endpoint = netsim.Endpoint

// Addr identifies a simulator endpoint.
type Addr = netsim.Addr

// Port is anything a protocol engine can attach to: a simulator
// endpoint, a mux flow, or a real-network (rtnet) flow.
type Port = netsim.Port

// Runtime is the scheduling surface engines run against — virtual time
// (*Sim) or the real clock (an rtnet shard loop). See DESIGN.md §7.
type Runtime = netsim.Runtime

// NewSim creates a simulator seeded for deterministic runs.
func NewSim(seed int64) *Sim { return netsim.New(seed) }
