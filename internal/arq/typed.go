package arq

import (
	"fmt"
	"time"

	"protodsl/internal/fsmtyped"
	"protodsl/internal/netsim"
)

// This file is the fsmtyped (compile-time-checked) implementation of the
// same protocol the interpreter executes from arq.pdsl.
// Each paper state is a distinct Go type; each SendTrans constructor is a
// Transition[From, To]. Applying TIMEOUT to a Ready state or FINISH to a
// Wait state does not compile — Go's type checker plays the role of the
// dependent type checker for the transition relation, exactly as
// DESIGN.md §2 maps it.

// Ready is the paper's `Ready seq`: ready to send packet seq.
type Ready struct{ Seq uint8 }

// Wait is `Wait seq`: packet seq is in flight.
type Wait struct {
	Seq  uint8
	Data []byte // the in-flight payload, kept for retransmission
}

// TimedOut is `Timeout seq`.
type TimedOut struct {
	Seq  uint8
	Data []byte
}

// Done is `Sent seq`: the transfer completed.
type Done struct{ Seq uint8 }

// StateName implements fsmtyped.State.
func (Ready) StateName() string { return StReady }

// StateName implements fsmtyped.State.
func (Wait) StateName() string { return StWait }

// StateName implements fsmtyped.State.
func (TimedOut) StateName() string { return StTimeout }

// StateName implements fsmtyped.State.
func (Done) StateName() string { return StSent }

// TransSend is `SEND : ListByte → SendTrans (Ready seq) (Wait seq)`.
func TransSend(data []byte) fsmtyped.Transition[Ready, Wait] {
	return func(r Ready) (Wait, error) {
		return Wait{Seq: r.Seq, Data: data}, nil
	}
}

// TransOK is `OK : ChkPacket … → SendTrans (Wait seq) (Ready (seq+1))`.
// The CheckedAck parameter is the validation witness: an unverified ack
// cannot be passed (there is no other way to obtain a CheckedAck). The
// sequence match — which dependent types would pin in the index — is the
// one residual runtime check.
func TransOK(ack CheckedAck) fsmtyped.Transition[Wait, Ready] {
	return func(w Wait) (Ready, error) {
		if !ack.Valid() {
			return Ready{}, fmt.Errorf("unverified ack")
		}
		if ack.Value().Seq != w.Seq {
			return Ready{}, fmt.Errorf("ack for seq %d, expected %d", ack.Value().Seq, w.Seq)
		}
		return Ready{Seq: w.Seq + 1}, nil
	}
}

// TransFail is `FAIL : SendTrans (Wait seq) (Ready seq)`.
func TransFail() fsmtyped.Transition[Wait, Ready] {
	return func(w Wait) (Ready, error) { return Ready{Seq: w.Seq}, nil }
}

// TransTimeout is `TIMEOUT : SendTrans (Wait seq) (Timeout seq)`.
func TransTimeout() fsmtyped.Transition[Wait, TimedOut] {
	return func(w Wait) (TimedOut, error) {
		return TimedOut{Seq: w.Seq, Data: w.Data}, nil
	}
}

// TransRetry is the host-policy escape `RETRY : Timeout → Ready`.
func TransRetry() fsmtyped.Transition[TimedOut, Ready] {
	return func(t TimedOut) (Ready, error) { return Ready{Seq: t.Seq}, nil }
}

// TransFinish is `FINISH : SendTrans (Ready seq) (Sent seq)`.
func TransFinish() fsmtyped.Transition[Ready, Done] {
	return func(r Ready) (Done, error) { return Done{Seq: r.Seq}, nil }
}

// ReadyFor is the receiver's `ReadyFor seq`.
type ReadyFor struct{ Seq uint8 }

// StateName implements fsmtyped.State.
func (ReadyFor) StateName() string { return StReadyFor }

// TransRecv is `RECV : … CheckPacket … → RecvTrans (ReadyFor seq)
// (ReadyFor (seq+1))`; it only accepts the in-sequence packet.
func TransRecv(p CheckedPacket) fsmtyped.Transition[ReadyFor, ReadyFor] {
	return func(r ReadyFor) (ReadyFor, error) {
		if !p.Valid() {
			return ReadyFor{}, fmt.Errorf("unverified packet")
		}
		if p.Value().Seq != r.Seq {
			return ReadyFor{}, fmt.Errorf("packet seq %d, expected %d", p.Value().Seq, r.Seq)
		}
		return ReadyFor{Seq: r.Seq + 1}, nil
	}
}

// senderState is the host-side sum of the typed states. The typed
// transitions guarantee each arm only moves to the states its signature
// allows; the sum exists because Go cannot express "a machine whose
// static type changes at runtime".
type senderState interface{ fsmtyped.State }

// TypedSender is the fsmtyped counterpart of Sender: identical protocol
// behaviour, transitions applied through compile-time-typed functions.
type TypedSender struct {
	sim   *netsim.Sim
	ep    *netsim.Endpoint
	peer  netsim.Addr
	codec *Codec
	log   fsmtyped.Log

	state senderState

	payloads [][]byte
	idx      int

	timer      netsim.Timer
	rto        time.Duration
	maxRetries int
	retries    int

	encBuf []byte // reusable AppendEncodePacket buffer

	stats SenderStats
	done  bool
	ok    bool
	err   error
}

// NewTypedSender builds the typed-state sender.
func NewTypedSender(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr,
	payloads [][]byte, rto time.Duration, maxRetries int) (*TypedSender, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, fmt.Errorf("arq typed sender: %w", err)
	}
	s := &TypedSender{
		sim: sim, ep: ep, peer: peer, codec: codec,
		state: Ready{Seq: 0}, payloads: payloads, rto: rto, maxRetries: maxRetries,
	}
	ep.SetHandler(s.onDatagram)
	return s, nil
}

// Start begins the transfer.
func (s *TypedSender) Start() { s.sim.Post(s.advance) }

// Done reports whether the transfer ended.
func (s *TypedSender) Done() bool { return s.done }

// OK reports success (state Done with all payloads acknowledged).
func (s *TypedSender) OK() bool { return s.ok }

// Err returns the first internal error.
func (s *TypedSender) Err() error { return s.err }

// Stats returns the sender counters.
func (s *TypedSender) Stats() SenderStats { return s.stats }

// State returns the current state name.
func (s *TypedSender) State() string { return s.state.StateName() }

// Log returns the executed-transition trace.
func (s *TypedSender) Log() *fsmtyped.Log { return &s.log }

func (s *TypedSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *TypedSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done = true
	s.ok = ok
	if s.timer != nil {
		s.timer.Cancel()
	}
}

func (s *TypedSender) advance() {
	if s.done {
		return
	}
	ready, isReady := s.state.(Ready)
	if !isReady {
		s.fail(fmt.Errorf("advance in state %s", s.state.StateName()))
		return
	}
	if s.idx >= len(s.payloads) {
		done, err := fsmtyped.Exec(&s.log, "FINISH", ready, TransFinish())
		if err != nil {
			s.fail(err)
			return
		}
		s.state = done
		s.finish(true)
		return
	}
	s.transmit(ready, false)
}

func (s *TypedSender) transmit(ready Ready, isRetransmit bool) {
	data := s.payloads[s.idx]
	wait, err := fsmtyped.Exec(&s.log, "SEND", ready, TransSend(data))
	if err != nil {
		s.fail(err)
		return
	}
	s.state = wait
	enc, err := s.codec.AppendEncodePacket(s.encBuf[:0], wait.Seq, wait.Data)
	if err != nil {
		s.fail(err)
		return
	}
	s.encBuf = enc[:0]
	if err := s.ep.Send(s.peer, enc); err != nil {
		s.fail(err)
		return
	}
	s.stats.PacketsSent++
	if isRetransmit {
		s.stats.Retransmits++
	}
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.timer = s.sim.After(s.rto, s.onTimeout)
}

func (s *TypedSender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	wait, isWait := s.state.(Wait)
	ack, err := s.codec.DecodeAckInPlace(data)
	if err != nil {
		s.stats.AcksCorrupted++
		if !isWait {
			return // corrupted ack outside Wait: nothing in flight
		}
		ready, ferr := fsmtyped.Exec(&s.log, "FAIL", wait, TransFail())
		if ferr != nil {
			s.fail(ferr)
			return
		}
		s.state = ready
		s.transmit(ready, true)
		return
	}
	s.stats.AcksReceived++
	if !isWait {
		s.stats.StaleAcks++ // stale ack in Ready/TimedOut: ignore
		return
	}
	ready, err := fsmtyped.Exec(&s.log, "OK", wait, TransOK(ack))
	if err != nil {
		s.stats.StaleAcks++ // seq mismatch: rejected, stay in Wait
		return
	}
	s.state = ready
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.retries = 0
	s.idx++
	s.advance()
}

func (s *TypedSender) onTimeout() {
	if s.done {
		return
	}
	wait, isWait := s.state.(Wait)
	if !isWait {
		return // late timer
	}
	timedOut, err := fsmtyped.Exec(&s.log, "TIMEOUT", wait, TransTimeout())
	if err != nil {
		s.fail(err)
		return
	}
	s.state = timedOut
	s.stats.Timeouts++
	s.retries++
	if s.retries > s.maxRetries {
		s.finish(false) // consistent failure end state: TimedOut
		return
	}
	ready, err := fsmtyped.Exec(&s.log, "RETRY", timedOut, TransRetry())
	if err != nil {
		s.fail(err)
		return
	}
	s.state = ready
	s.transmit(ready, true)
}

// TypedReceiver is the fsmtyped counterpart of Receiver.
type TypedReceiver struct {
	sim   *netsim.Sim
	ep    *netsim.Endpoint
	peer  netsim.Addr
	codec *Codec
	log   fsmtyped.Log

	state     ReadyFor
	encBuf    []byte // reusable AppendEncodeAck buffer
	delivered [][]byte
	stats     ReceiverStats
	err       error
}

// NewTypedReceiver builds the typed-state receiver.
func NewTypedReceiver(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr) (*TypedReceiver, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, fmt.Errorf("arq typed receiver: %w", err)
	}
	r := &TypedReceiver{sim: sim, ep: ep, peer: peer, codec: codec}
	ep.SetHandler(r.onDatagram)
	return r, nil
}

// Delivered returns the accepted payloads in order.
func (r *TypedReceiver) Delivered() [][]byte {
	out := make([][]byte, len(r.delivered))
	copy(out, r.delivered)
	return out
}

// Stats returns the receiver counters.
func (r *TypedReceiver) Stats() ReceiverStats { return r.stats }

// Err returns the first internal error.
func (r *TypedReceiver) Err() error { return r.err }

func (r *TypedReceiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	// In-place decode: the payload aliases the simulator's delivery
	// buffer, which the handler owns; accepted payloads are therefore
	// safe to keep without copying (as in Receiver).
	pkt, err := r.codec.DecodePacketInPlace(data)
	if err != nil {
		r.stats.PacketsCorrupted++
		return
	}
	r.stats.PacketsReceived++
	next, err := fsmtyped.Exec(&r.log, "RECV", r.state, TransRecv(pkt))
	acked := pkt.Value().Seq
	if err != nil {
		r.stats.Duplicates++ // out-of-sequence: dup-ack, do not deliver
	} else {
		r.state = next
		r.delivered = append(r.delivered, pkt.Value().Payload)
	}
	enc, eerr := r.codec.AppendEncodeAck(r.encBuf[:0], acked)
	if eerr != nil {
		r.err = eerr
		return
	}
	r.encBuf = enc[:0]
	if serr := r.ep.Send(r.peer, enc); serr != nil {
		r.err = serr
		return
	}
	r.stats.AcksSent++
}

// RunTransferTyped runs the same workload as RunTransfer through the
// typed-state implementation. Given identical Config and payloads the two
// implementations produce identical protocol behaviour (asserted by
// tests) — the interpreter-vs-typed ablation of DESIGN.md §6.
func RunTransferTyped(cfg Config, payloads [][]byte) (*Result, error) {
	if cfg.RTO == 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	if cfg.EventBudget == 0 {
		cfg.EventBudget = 10000 + 200*len(payloads)*(cfg.MaxRetries+1)
	}

	sim := netsim.New(cfg.Seed)
	sEP, err := sim.NewEndpoint("sender")
	if err != nil {
		return nil, err
	}
	rEP, err := sim.NewEndpoint("receiver")
	if err != nil {
		return nil, err
	}
	sim.Connect(sEP, rEP, cfg.Link)

	recv, err := NewTypedReceiver(sim, rEP, sEP.Addr())
	if err != nil {
		return nil, err
	}
	send, err := NewTypedSender(sim, sEP, rEP.Addr(), payloads, cfg.RTO, cfg.MaxRetries)
	if err != nil {
		return nil, err
	}

	send.Start()
	if err := sim.RunUntilIdle(cfg.EventBudget); err != nil {
		return nil, fmt.Errorf("arq typed transfer: %w", err)
	}
	if err := send.Err(); err != nil {
		return nil, fmt.Errorf("arq typed transfer: sender: %w", err)
	}
	if err := recv.Err(); err != nil {
		return nil, fmt.Errorf("arq typed transfer: receiver: %w", err)
	}

	return &Result{
		OK:          send.OK(),
		SenderState: send.State(),
		Delivered:   recv.Delivered(),
		Duration:    sim.Now(),
		Sender:      send.Stats(),
		Receiver:    recv.Stats(),
		Network:     sim.Stats(),
	}, nil
}
