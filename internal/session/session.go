// Package session is the connection lifecycle layer (DESIGN.md §14): a
// 3-way cookie handshake, heartbeat liveness, half-close teardown with
// TIME_WAIT absorption, and crash-recoverable server state — all driven
// by the compiled handshake machines from handshake.pdsl, the same
// pipeline every other protocol in this repo rides.
//
// The split mirrors the spec's two machines. Client (client.go) is the
// active opener: it owns a flow port, retransmits SYN on the RFC 6298
// estimator, completes the cookie round-trip, exchanges heartbeats, and
// tears down through FIN/FIN-ACK into TIME_WAIT. Gate (gate.go) is the
// passive side: it classifies every received frame as control or data,
// reflects SYNs statelessly (the cookie is a keyed MAC, so the server
// allocates nothing before the round-trip completes), and only spawns a
// data engine when a valid-cookie ACKC lands. Store (snapshot.go)
// append-logs established-machine state plus ARQ receiver progress so a
// restarted server resumes mid-transfer at the correct sequence.
//
// Everything here runs on the owning shard loop: no locks, and the
// steady-state paths (heartbeat tick, established-frame dispatch,
// snapshot append) are allocation-free.
package session

import (
	"fmt"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/wire"
)

// Kind discriminates the control-frame family. The zero Kind means "not
// a control frame" and is what Codec.Classify returns for data.
type Kind uint8

// The control frame kinds, matching the `kind` field values baked into
// handshake.pdsl transitions.
const (
	KindSyn     Kind = 1
	KindSynAck  Kind = 2
	KindAckC    Kind = 3
	KindFin     Kind = 4
	KindFinAck  Kind = 5
	KindBeat    Kind = 6
	KindBeatAck Kind = 7

	numKinds = 8 // array bound: kinds 1..7 plus the zero slot
)

// Magic is the lead byte shared by every control frame. Data frames
// whose first payload byte happens to be 199 are disambiguated by
// length and checksum — see the aliasing note in DESIGN.md §14.
const Magic = 199

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindSyn:
		return "SYN"
	case KindSynAck:
		return "SYN-ACK"
	case KindAckC:
		return "ACK-C"
	case KindFin:
		return "FIN"
	case KindFinAck:
		return "FIN-ACK"
	case KindBeat:
		return "BEAT"
	case KindBeatAck:
		return "BEAT-ACK"
	}
	return "DATA"
}

var kindMessage = [numKinds]string{
	KindSyn:     "Syn",
	KindSynAck:  "SynAck",
	KindAckC:    "AckC",
	KindFin:     "Fin",
	KindFinAck:  "FinAck",
	KindBeat:    "Beat",
	KindBeatAck: "BeatAck",
}

// Engine is the data-plane endpoint a Gate accept callback returns: the
// established-peer frame handler plus an optional progress probe. When
// Progress is non-nil the gate snapshots machine state every time the
// reported value moves (the ARQ receivers' Expect method is the
// intended probe), which is what makes the session crash-recoverable.
type Engine struct {
	Handle   func(from netsim.Addr, data []byte)
	Progress func() uint64
}

// Resume carries recovered state into an accept callback after a
// restart (or a peer-down reap followed by a re-handshake): Expect is
// the ARQ receiver sequence to seed via SeedExpect.
type Resume struct {
	Expect uint64
}

// protocol is the compiled handshake protocol, built once per process:
// the machine programs (cheap per-peer instantiation) and the wire
// layouts the codec encodes against.
type protocol struct {
	clientProg *fsm.Program
	serverProg *fsm.Program
	layouts    map[string]*wire.Layout
}

// handshake is the loader of handshake.pdsl.
var handshake = dsl.Load(specs.Handshake)

// compiled returns the process-wide compiled handshake protocol.
func compiled() (protocol, error) {
	proto, err := handshake()
	if err != nil {
		return protocol{}, fmt.Errorf("session: handshake spec: %w", err)
	}
	p := protocol{layouts: proto.Layouts}
	var ok bool
	if p.clientProg, ok = proto.Program("Client"); !ok {
		return protocol{}, fmt.Errorf("session: handshake spec has no Client machine")
	}
	if p.serverProg, ok = proto.Program("Server"); !ok {
		return protocol{}, fmt.Errorf("session: handshake spec has no Server machine")
	}
	return p, nil
}
