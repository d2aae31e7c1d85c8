// Code generated by pdslc from protocol "arq". DO NOT EDIT.

// Package gen contains the generated codecs and state machines for
// protocol "arq", emitted from the compiled wire/fsm programs: codecs
// store and load fields at offsets resolved at generation time,
// typed state-transition methods exist only on their legal source
// state type (invalid transitions do not compile), decoded messages
// are returned as validation witnesses, and flat *Machine types run
// dense table dispatch with zero allocations.
package gen

import (
	"fmt"

	genrt "protodsl/internal/genrt"
)

var _ = fmt.Errorf // keep fmt used even for machine-only protocols

// Packet is the message "Packet".
type Packet struct {
	Seq     uint8
	Payload []byte
}

// CheckedPacket witnesses a Packet that passed every wire-level check on
// decode. The zero value is invalid; the only constructor is DecodePacket.
type CheckedPacket struct {
	value Packet
	ok    bool
}

// Value returns the validated message.
func (c CheckedPacket) Value() Packet { return c.value }

// Valid reports whether the witness was issued by DecodePacket.
func (c CheckedPacket) Valid() bool { return c.ok }

// AppendEncodePacket appends m's wire encoding to dst and returns the
// extended slice. Offsets, shifts and sizes are resolved at generation
// time from the compiled wire program; a successful call allocates
// nothing beyond growing dst. On error dst is returned unchanged.
func AppendEncodePacket(dst []byte, m *Packet) ([]byte, error) {
	if uint64(len(m.Payload)) >= 1<<16 {
		return dst, fmt.Errorf("Packet.paylen: %w", genrt.ErrFieldRange)
	}
	aPaylen := uint16(len(m.Payload))
	n := 4 + len(m.Payload)
	dst = append(dst, make([]byte, n)...)
	b := dst[len(dst)-n:]
	b[0] = m.Seq
	b[2] = byte(aPaylen >> 8)
	b[3] = byte(aPaylen)
	copy(b[4:], m.Payload)
	sum0 := genrt.Sum8(b)
	b[1] = byte(sum0) // chk
	return dst, nil
}

// EncodePacket serialises the message into a fresh buffer; computed fields
// (lengths, checksums) are filled in automatically.
func EncodePacket(m Packet) ([]byte, error) {
	return AppendEncodePacket(nil, &m)
}

// DecodePacketInto parses data into m, verifying lengths, computed fields
// and checksums — the compiled program's checks with every offset
// resolved at generation time. Bytes fields alias data; checksum
// verification may briefly zero and restore checksum bytes in place
// (as the slot interpreter does). On error m is left unmodified.
// A successful call performs no allocations.
func DecodePacketInto(m *Packet, data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("Packet: %w", genrt.ErrShortBuffer)
	}
	fSeq := data[0]
	fChk := data[1]
	fPaylen := uint16(data[2])<<8 | uint16(data[3])
	if uint64(len(data)-4) < uint64(fPaylen) {
		return fmt.Errorf("Packet.payload: %w", genrt.ErrShortBuffer)
	}
	n0 := int(fPaylen)
	fPayload := data[4 : 4+n0]
	if 4+n0 != len(data) {
		return fmt.Errorf("Packet: %w", genrt.ErrTrailingBytes)
	}
	want0 := (genrt.Sum8(data) - uint64(data[1])) & 0xff
	if uint64(fChk) != want0 {
		return fmt.Errorf("Packet.chk: %w", genrt.ErrChecksumMismatch)
	}
	m.Seq = fSeq
	m.Payload = fPayload
	return nil
}

// DecodePacket parses and validates the message: lengths, computed
// fields and checksums are all verified, so the returned witness is
// evidence the data is well-formed (no processing of unverified
// packets). The witness owns its bytes — data is cloned, never
// aliased or mutated.
func DecodePacket(data []byte) (CheckedPacket, error) {
	buf := append([]byte(nil), data...)
	var v Packet
	if err := DecodePacketInto(&v, buf); err != nil {
		return CheckedPacket{}, err
	}
	return CheckedPacket{ok: true, value: v}, nil
}

// Ack is the message "Ack".
type Ack struct {
	Seq uint8
}

// CheckedAck witnesses a Ack that passed every wire-level check on
// decode. The zero value is invalid; the only constructor is DecodeAck.
type CheckedAck struct {
	value Ack
	ok    bool
}

// Value returns the validated message.
func (c CheckedAck) Value() Ack { return c.value }

// Valid reports whether the witness was issued by DecodeAck.
func (c CheckedAck) Valid() bool { return c.ok }

// AppendEncodeAck appends m's wire encoding to dst and returns the
// extended slice. Offsets, shifts and sizes are resolved at generation
// time from the compiled wire program; a successful call allocates
// nothing beyond growing dst. On error dst is returned unchanged.
func AppendEncodeAck(dst []byte, m *Ack) ([]byte, error) {
	n := 2
	dst = append(dst, make([]byte, n)...)
	b := dst[len(dst)-n:]
	b[0] = m.Seq
	sum0 := (uint64(b[0])) & 0xff // sum8 constant-folded: fixed 2-byte layout
	b[1] = byte(sum0)             // chk
	return dst, nil
}

// EncodeAck serialises the message into a fresh buffer; computed fields
// (lengths, checksums) are filled in automatically.
func EncodeAck(m Ack) ([]byte, error) {
	return AppendEncodeAck(nil, &m)
}

// DecodeAckInto parses data into m, verifying lengths, computed fields
// and checksums — the compiled program's checks with every offset
// resolved at generation time. Bytes fields alias data; checksum
// verification may briefly zero and restore checksum bytes in place
// (as the slot interpreter does). On error m is left unmodified.
// A successful call performs no allocations.
func DecodeAckInto(m *Ack, data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("Ack: %w", genrt.ErrShortBuffer)
	}
	fSeq := data[0]
	fChk := data[1]
	if len(data) != 2 {
		return fmt.Errorf("Ack: %w", genrt.ErrTrailingBytes)
	}
	want0 := (uint64(data[0])) & 0xff
	if uint64(fChk) != want0 {
		return fmt.Errorf("Ack.chk: %w", genrt.ErrChecksumMismatch)
	}
	m.Seq = fSeq
	return nil
}

// DecodeAck parses and validates the message: lengths, computed
// fields and checksums are all verified, so the returned witness is
// evidence the data is well-formed (no processing of unverified
// packets). The witness owns its bytes — data is cloned, never
// aliased or mutated.
func DecodeAck(data []byte) (CheckedAck, error) {
	buf := append([]byte(nil), data...)
	var v Ack
	if err := DecodeAckInto(&v, buf); err != nil {
		return CheckedAck{}, err
	}
	return CheckedAck{ok: true, value: v}, nil
}

// SenderVars holds machine Sender's variables; every state carries them.
type SenderVars struct {
	Seq uint8
}

// SenderReady is machine Sender in state "Ready" (initial).
type SenderReady struct {
	Vars SenderVars
}

// StateName identifies the state.
func (SenderReady) StateName() string { return "Ready" }

// SenderWait is machine Sender in state "Wait".
type SenderWait struct {
	Vars SenderVars
}

// StateName identifies the state.
func (SenderWait) StateName() string { return "Wait" }

// SenderTimeout is machine Sender in state "Timeout".
type SenderTimeout struct {
	Vars SenderVars
}

// StateName identifies the state.
func (SenderTimeout) StateName() string { return "Timeout" }

// SenderSent is machine Sender in state "Sent" (final: no transitions leave it).
type SenderSent struct {
	Vars SenderVars
}

// StateName identifies the state.
func (SenderSent) StateName() string { return "Sent" }

// NewSender returns the machine in its initial state "Ready".
func NewSender() SenderReady {
	return SenderReady{Vars: SenderVars{}}
}

// Send implements transition "send": Ready --SEND--> Wait.
func (s SenderReady) Send(data []byte) (SenderWait, Packet, error) {
	vars := s.Vars
	out := Packet{Payload: data, Seq: s.Vars.Seq}
	return SenderWait{Vars: vars}, out, nil
}

// Ack implements transition "ack": Wait --OK--> Ready.
// It returns genrt.ErrGuardFailed — and the caller keeps its current
// state value — when the guard `ack.seq == seq` does not hold.
func (s SenderWait) Ack(ack CheckedAck) (SenderReady, error) {
	if !ack.Valid() {
		return SenderReady{}, genrt.ErrUnverified
	}
	if !(uint64(ack.Value().Seq) == uint64(s.Vars.Seq)) {
		return SenderReady{}, genrt.ErrGuardFailed
	}
	vars := s.Vars
	vars.Seq = (s.Vars.Seq + 1)
	return SenderReady{Vars: vars}, nil
}

// Fail implements transition "fail": Wait --FAIL--> Ready.
func (s SenderWait) Fail() (SenderReady, error) {
	vars := s.Vars
	return SenderReady{Vars: vars}, nil
}

// Timeout implements transition "timeout": Wait --TIMEOUT--> Timeout.
func (s SenderWait) Timeout() (SenderTimeout, error) {
	vars := s.Vars
	return SenderTimeout{Vars: vars}, nil
}

// Retry implements transition "retry": Timeout --RETRY--> Ready.
func (s SenderTimeout) Retry() (SenderReady, error) {
	vars := s.Vars
	return SenderReady{Vars: vars}, nil
}

// Finish implements transition "finish": Ready --FINISH--> Sent.
func (s SenderReady) Finish() (SenderSent, error) {
	vars := s.Vars
	return SenderSent{Vars: vars}, nil
}

// Dense state and event indices for the flat SenderMachine dispatch
// tables, in spec declaration order (see DESIGN.md §11).
const (
	SenderStReady   = 0
	SenderStWait    = 1
	SenderStTimeout = 2
	SenderStSent    = 3
	SenderNumStates = 4
)

const (
	SenderEvSEND    = 0
	SenderEvOK      = 1
	SenderEvFAIL    = 2
	SenderEvTIMEOUT = 3
	SenderEvRETRY   = 4
	SenderEvFINISH  = 5
	SenderNumEvents = 6
)

var senderStateNames = [SenderNumStates]string{
	"Ready",
	"Wait",
	"Timeout",
	"Sent",
}

var senderFinals = [SenderNumStates]bool{
	false,
	false,
	false,
	true,
}

// SenderTransitionNames maps a fired StepOutcome index to the
// transition's spec name.
var SenderTransitionNames = [...]string{
	"send",
	"ack",
	"fail",
	"timeout",
	"retry",
	"finish",
}

const (
	SenderTrSend    genrt.StepOutcome = 0
	SenderTrAck     genrt.StepOutcome = 1
	SenderTrFail    genrt.StepOutcome = 2
	SenderTrTimeout genrt.StepOutcome = 3
	SenderTrRetry   genrt.StepOutcome = 4
	SenderTrFinish  genrt.StepOutcome = 5
)

// SenderMachine executes machine Sender as flat table dispatch: state and
// event are dense indices, delivering an event is one table load and
// an indirect call, and outputs are staged in value fields — no maps,
// no interface values, no allocations on any path. It is the raw
// dispatch core; the typed state API above carries the compile-time
// transition proofs.
type SenderMachine struct {
	state int32
	// Vars are the machine variables (write only via transitions).
	Vars SenderVars
	// OutPacket is staged by the last fired transition that emits a
	// Packet; it is valid until the next delivery.
	OutPacket Packet
}

// NewSenderMachine returns the flat machine in its initial state "Ready".
func NewSenderMachine() SenderMachine {
	return SenderMachine{state: SenderStReady, Vars: SenderVars{}}
}

// Reset returns the machine to its initial state and variable values.
func (m *SenderMachine) Reset() { *m = NewSenderMachine() }

// StateIndex returns the dense index of the current state.
func (m *SenderMachine) StateIndex() int { return int(m.state) }

// StateName identifies the state.
func (m *SenderMachine) StateName() string { return senderStateNames[m.state] }

// InFinal reports whether the machine is in an accepting state.
func (m *SenderMachine) InFinal() bool { return senderFinals[m.state] }

func senderSENDFromReady(m *SenderMachine, data []byte) (genrt.StepOutcome, error) {
	m.OutPacket = Packet{Payload: data, Seq: m.Vars.Seq}
	m.state = SenderStWait
	return SenderTrSend, nil
}

func senderSENDIgnore(m *SenderMachine, data []byte) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}

var senderSENDTab = [SenderNumStates]func(*SenderMachine, []byte) (genrt.StepOutcome, error){
	SenderStReady:   senderSENDFromReady,
	SenderStWait:    senderSENDIgnore,
	SenderStTimeout: senderSENDIgnore,
}

// SEND delivers event "SEND". The outcome is the fired transition's
// program-wide index (SenderTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *SenderMachine) SEND(data []byte) (genrt.StepOutcome, error) {
	if fn := senderSENDTab[m.state]; fn != nil {
		return fn(m, data)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

func senderOKFromWait(m *SenderMachine, ack *Ack) (genrt.StepOutcome, error) {
	if uint64(ack.Seq) == uint64(m.Vars.Seq) {
		nvSeq := (m.Vars.Seq + 1)
		m.Vars.Seq = nvSeq
		m.state = SenderStReady
		return SenderTrAck, nil
	}
	return genrt.StepRejected, nil
}

func senderOKIgnore(m *SenderMachine, ack *Ack) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}

var senderOKTab = [SenderNumStates]func(*SenderMachine, *Ack) (genrt.StepOutcome, error){
	SenderStReady:   senderOKIgnore,
	SenderStWait:    senderOKFromWait,
	SenderStTimeout: senderOKIgnore,
}

// OK delivers event "OK". The outcome is the fired transition's
// program-wide index (SenderTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *SenderMachine) OK(ack *Ack) (genrt.StepOutcome, error) {
	if fn := senderOKTab[m.state]; fn != nil {
		return fn(m, ack)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

func senderFAILFromWait(m *SenderMachine) (genrt.StepOutcome, error) {
	m.state = SenderStReady
	return SenderTrFail, nil
}

func senderFAILIgnore(m *SenderMachine) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}

var senderFAILTab = [SenderNumStates]func(*SenderMachine) (genrt.StepOutcome, error){
	SenderStReady:   senderFAILIgnore,
	SenderStWait:    senderFAILFromWait,
	SenderStTimeout: senderFAILIgnore,
}

// FAIL delivers event "FAIL". The outcome is the fired transition's
// program-wide index (SenderTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *SenderMachine) FAIL() (genrt.StepOutcome, error) {
	if fn := senderFAILTab[m.state]; fn != nil {
		return fn(m)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

func senderTIMEOUTFromWait(m *SenderMachine) (genrt.StepOutcome, error) {
	m.state = SenderStTimeout
	return SenderTrTimeout, nil
}

func senderTIMEOUTIgnore(m *SenderMachine) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}

var senderTIMEOUTTab = [SenderNumStates]func(*SenderMachine) (genrt.StepOutcome, error){
	SenderStReady:   senderTIMEOUTIgnore,
	SenderStWait:    senderTIMEOUTFromWait,
	SenderStTimeout: senderTIMEOUTIgnore,
}

// TIMEOUT delivers event "TIMEOUT". The outcome is the fired transition's
// program-wide index (SenderTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *SenderMachine) TIMEOUT() (genrt.StepOutcome, error) {
	if fn := senderTIMEOUTTab[m.state]; fn != nil {
		return fn(m)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

func senderRETRYFromTimeout(m *SenderMachine) (genrt.StepOutcome, error) {
	m.state = SenderStReady
	return SenderTrRetry, nil
}

func senderRETRYIgnore(m *SenderMachine) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}

var senderRETRYTab = [SenderNumStates]func(*SenderMachine) (genrt.StepOutcome, error){
	SenderStReady:   senderRETRYIgnore,
	SenderStWait:    senderRETRYIgnore,
	SenderStTimeout: senderRETRYFromTimeout,
}

// RETRY delivers event "RETRY". The outcome is the fired transition's
// program-wide index (SenderTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *SenderMachine) RETRY() (genrt.StepOutcome, error) {
	if fn := senderRETRYTab[m.state]; fn != nil {
		return fn(m)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

func senderFINISHFromReady(m *SenderMachine) (genrt.StepOutcome, error) {
	m.state = SenderStSent
	return SenderTrFinish, nil
}

func senderFINISHIgnore(m *SenderMachine) (genrt.StepOutcome, error) {
	return genrt.StepIgnored, nil
}

var senderFINISHTab = [SenderNumStates]func(*SenderMachine) (genrt.StepOutcome, error){
	SenderStReady:   senderFINISHFromReady,
	SenderStWait:    senderFINISHIgnore,
	SenderStTimeout: senderFINISHIgnore,
}

// FINISH delivers event "FINISH". The outcome is the fired transition's
// program-wide index (SenderTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *SenderMachine) FINISH() (genrt.StepOutcome, error) {
	if fn := senderFINISHTab[m.state]; fn != nil {
		return fn(m)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

// ReceiverVars holds machine Receiver's variables; every state carries them.
type ReceiverVars struct {
	Seq uint8
}

// ReceiverReadyFor is machine Receiver in state "ReadyFor" (initial).
type ReceiverReadyFor struct {
	Vars ReceiverVars
}

// StateName identifies the state.
func (ReceiverReadyFor) StateName() string { return "ReadyFor" }

// ReceiverClosed is machine Receiver in state "Closed" (final: no transitions leave it).
type ReceiverClosed struct {
	Vars ReceiverVars
}

// StateName identifies the state.
func (ReceiverClosed) StateName() string { return "Closed" }

// NewReceiver returns the machine in its initial state "ReadyFor".
func NewReceiver() ReceiverReadyFor {
	return ReceiverReadyFor{Vars: ReceiverVars{}}
}

// Accept implements transition "accept": ReadyFor --RECV--> ReadyFor.
// It returns genrt.ErrGuardFailed — and the caller keeps its current
// state value — when the guard `p.seq == seq` does not hold.
func (s ReceiverReadyFor) Accept(p CheckedPacket) (ReceiverReadyFor, Ack, error) {
	if !p.Valid() {
		return ReceiverReadyFor{}, Ack{}, genrt.ErrUnverified
	}
	if !(uint64(p.Value().Seq) == uint64(s.Vars.Seq)) {
		return ReceiverReadyFor{}, Ack{}, genrt.ErrGuardFailed
	}
	vars := s.Vars
	vars.Seq = (s.Vars.Seq + 1)
	out := Ack{Seq: p.Value().Seq}
	return ReceiverReadyFor{Vars: vars}, out, nil
}

// Dupack implements transition "dupack": ReadyFor --RECV--> ReadyFor.
// It returns genrt.ErrGuardFailed — and the caller keeps its current
// state value — when the guard `p.seq != seq` does not hold.
func (s ReceiverReadyFor) Dupack(p CheckedPacket) (ReceiverReadyFor, Ack, error) {
	if !p.Valid() {
		return ReceiverReadyFor{}, Ack{}, genrt.ErrUnverified
	}
	if !(uint64(p.Value().Seq) != uint64(s.Vars.Seq)) {
		return ReceiverReadyFor{}, Ack{}, genrt.ErrGuardFailed
	}
	vars := s.Vars
	out := Ack{Seq: p.Value().Seq}
	return ReceiverReadyFor{Vars: vars}, out, nil
}

// Close implements transition "close": ReadyFor --CLOSE--> Closed.
func (s ReceiverReadyFor) Close() (ReceiverClosed, error) {
	vars := s.Vars
	return ReceiverClosed{Vars: vars}, nil
}

// Dense state and event indices for the flat ReceiverMachine dispatch
// tables, in spec declaration order (see DESIGN.md §11).
const (
	ReceiverStReadyFor = 0
	ReceiverStClosed   = 1
	ReceiverNumStates  = 2
)

const (
	ReceiverEvRECV    = 0
	ReceiverEvCLOSE   = 1
	ReceiverNumEvents = 2
)

var receiverStateNames = [ReceiverNumStates]string{
	"ReadyFor",
	"Closed",
}

var receiverFinals = [ReceiverNumStates]bool{
	false,
	true,
}

// ReceiverTransitionNames maps a fired StepOutcome index to the
// transition's spec name.
var ReceiverTransitionNames = [...]string{
	"accept",
	"dupack",
	"close",
}

const (
	ReceiverTrAccept genrt.StepOutcome = 0
	ReceiverTrDupack genrt.StepOutcome = 1
	ReceiverTrClose  genrt.StepOutcome = 2
)

// ReceiverMachine executes machine Receiver as flat table dispatch: state and
// event are dense indices, delivering an event is one table load and
// an indirect call, and outputs are staged in value fields — no maps,
// no interface values, no allocations on any path. It is the raw
// dispatch core; the typed state API above carries the compile-time
// transition proofs.
type ReceiverMachine struct {
	state int32
	// Vars are the machine variables (write only via transitions).
	Vars ReceiverVars
	// OutAck is staged by the last fired transition that emits a
	// Ack; it is valid until the next delivery.
	OutAck Ack
}

// NewReceiverMachine returns the flat machine in its initial state "ReadyFor".
func NewReceiverMachine() ReceiverMachine {
	return ReceiverMachine{state: ReceiverStReadyFor, Vars: ReceiverVars{}}
}

// Reset returns the machine to its initial state and variable values.
func (m *ReceiverMachine) Reset() { *m = NewReceiverMachine() }

// StateIndex returns the dense index of the current state.
func (m *ReceiverMachine) StateIndex() int { return int(m.state) }

// StateName identifies the state.
func (m *ReceiverMachine) StateName() string { return receiverStateNames[m.state] }

// InFinal reports whether the machine is in an accepting state.
func (m *ReceiverMachine) InFinal() bool { return receiverFinals[m.state] }

func receiverRECVFromReadyFor(m *ReceiverMachine, p *Packet) (genrt.StepOutcome, error) {
	if uint64(p.Seq) == uint64(m.Vars.Seq) {
		nvSeq := (m.Vars.Seq + 1)
		m.OutAck = Ack{Seq: p.Seq}
		m.Vars.Seq = nvSeq
		m.state = ReceiverStReadyFor
		return ReceiverTrAccept, nil
	}
	if uint64(p.Seq) != uint64(m.Vars.Seq) {
		m.OutAck = Ack{Seq: p.Seq}
		m.state = ReceiverStReadyFor
		return ReceiverTrDupack, nil
	}
	return genrt.StepRejected, nil
}

var receiverRECVTab = [ReceiverNumStates]func(*ReceiverMachine, *Packet) (genrt.StepOutcome, error){
	ReceiverStReadyFor: receiverRECVFromReadyFor,
}

// RECV delivers event "RECV". The outcome is the fired transition's
// program-wide index (ReceiverTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *ReceiverMachine) RECV(p *Packet) (genrt.StepOutcome, error) {
	if fn := receiverRECVTab[m.state]; fn != nil {
		return fn(m, p)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}

func receiverCLOSEFromReadyFor(m *ReceiverMachine) (genrt.StepOutcome, error) {
	m.state = ReceiverStClosed
	return ReceiverTrClose, nil
}

var receiverCLOSETab = [ReceiverNumStates]func(*ReceiverMachine) (genrt.StepOutcome, error){
	ReceiverStReadyFor: receiverCLOSEFromReadyFor,
}

// CLOSE delivers event "CLOSE". The outcome is the fired transition's
// program-wide index (ReceiverTr*), genrt.StepIgnored, or genrt.StepRejected
// when every declared guard fails; genrt.ErrNoTransition reports an
// event the current state neither handles nor ignores.
func (m *ReceiverMachine) CLOSE() (genrt.StepOutcome, error) {
	if fn := receiverCLOSETab[m.state]; fn != nil {
		return fn(m)
	}
	return genrt.StepNone, genrt.ErrNoTransition
}
