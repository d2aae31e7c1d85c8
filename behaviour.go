package protodsl

import (
	"protodsl/internal/adapt"
	"protodsl/internal/arq"
	"protodsl/internal/ipv4"
	"protodsl/internal/trust"
	"protodsl/internal/tuning"
)

// This file exposes the behavioural subsystems of the library: the
// paper's §3.4 ARQ protocol as a ready-to-run transfer harness, and the
// three §1.1 behavioural hooks (fuzzy adaptation, trust routing, timer
// tuning).
//
// The ARQ harnesses run on the compiled execution engine: the sender and
// receiver machines execute fsm.Program dispatch tables (slot-indexed
// compiled guards and actions, see CompileSpec) and the wire path runs
// wire.Program slot programs over reusable frames and buffers (DESIGN.md
// §8), so the steady-state transfer loop is allocation-free. The map
// codec of wire.Layout is only the differential reference (DESIGN.md §3).

// ---- The paper's ARQ protocol (§3.4) ----

// ARQConfig parameterises a simulated stop-and-wait transfer.
type ARQConfig = arq.Config

// ARQResult reports a completed transfer.
type ARQResult = arq.Result

// RunARQTransfer transfers payloads with the paper's stop-and-wait ARQ
// over a simulated link. Deterministic in (config, payloads).
func RunARQTransfer(cfg ARQConfig, payloads [][]byte) (*ARQResult, error) {
	return arq.RunTransfer(cfg, payloads)
}

// GBNConfig parameterises a go-back-N (windowed) transfer.
type GBNConfig = arq.GBNConfig

// GBNResult reports a go-back-N transfer.
type GBNResult = arq.GBNResult

// RunGBNTransfer transfers payloads with the go-back-N extension.
func RunGBNTransfer(cfg GBNConfig, payloads [][]byte) (*GBNResult, error) {
	return arq.RunTransferGBN(cfg, payloads)
}

// ---- Fuzzy adaptation (§1.1, ref [1]) ----

// RateController adapts a media send rate with a fuzzy rule base.
type RateController = adapt.RateController

// NewRateController builds a fuzzy rate controller with the given bounds
// and initial rate.
func NewRateController(minRate, maxRate, initial float64) (*RateController, error) {
	return adapt.NewRateController(minRate, maxRate, initial)
}

// StreamResult aggregates a simulated media stream.
type StreamResult = adapt.StreamResult

// StreamSender chooses the offered rate each interval.
type StreamSender = adapt.Sender

// FixedSender is the non-adaptive stream baseline.
type FixedSender = adapt.FixedSender

// FuzzySender adapts the stream rate through a RateController.
type FuzzySender = adapt.FuzzySender

// SimulateStream runs a sender against a per-interval capacity schedule.
func SimulateStream(capacities []float64, s StreamSender) (*StreamResult, error) {
	return adapt.SimulateStream(capacities, s)
}

// SteppedCapacity builds a capacity schedule holding each level for
// `hold` intervals.
func SteppedCapacity(levels []float64, hold int) []float64 {
	return adapt.SteppedCapacity(levels, hold)
}

// ---- Trust routing (§1.1, ref [12]) ----

// TrustConfig parameterises an untrusted-relay delivery run.
type TrustConfig = trust.Config

// TrustResult reports the run.
type TrustResult = trust.Result

// Relay-selection strategies.
const (
	// TrustStrategyRandom picks relays uniformly (baseline).
	TrustStrategyRandom = trust.StrategyRandom
	// TrustStrategyLearn learns per-relay trust scores ε-greedily.
	TrustStrategyLearn = trust.StrategyTrust
)

// RunTrustRouting delivers messages through partially adversarial relays.
func RunTrustRouting(cfg TrustConfig) (*TrustResult, error) { return trust.Run(cfg) }

// ---- Timer tuning (§1.1, ref [5]) ----

// RTOEstimator is an RFC 6298 adaptive retransmission-timeout estimator.
type RTOEstimator = tuning.RTOEstimator

// NewRTOEstimator creates an estimator with the given initial value and
// clamp bounds.
var NewRTOEstimator = tuning.NewRTOEstimator

// ---- Figure 1 (RFC 791) ----

// IPv4Header is a decoded, semantically validated IPv4 header.
type IPv4Header = ipv4.Header

// IPv4Codec encodes and decodes RFC 791 headers defined in the wire DSL.
type IPv4Codec = ipv4.Codec

// NewIPv4Codec compiles the RFC 791 header layout.
func NewIPv4Codec() (*IPv4Codec, error) { return ipv4.NewCodec() }

// IPv4Diagram renders the paper's Figure 1 from the machine-checked
// definition.
func IPv4Diagram() string { return ipv4.Diagram() }
