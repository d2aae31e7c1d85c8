package arq

import (
	"fmt"
	"time"

	"protodsl/internal/arq/gen"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/wire"
)

// SenderStats counts sender-side protocol events.
type SenderStats struct {
	PacketsSent   int // total data packets put on the wire
	Retransmits   int // of which retransmissions
	AcksReceived  int // validated acks delivered to the machine
	AcksCorrupted int // acks that failed validation (FAIL transitions)
	Timeouts      int // retransmission timer expiries
	StaleAcks     int // acks ignored or rejected by the machine
}

// Sender drives the checked ARQ sender spec over a simulator endpoint.
// All methods run inside the simulator event loop.
//
// The machine is gen.SenderMachine, the flat table-dispatch machine
// generated from arq.pdsl's Sender, and the wire codec is the one
// generated from its Packet and Ack layouts: acks decode into a
// reusable gen.Ack, the machine dispatches on the decoded value, and
// the packet it stages is encoded straight into a reusable buffer — the
// steady-state send/ack loop touches no map, hashes no string and does
// not allocate. Dispatch is on the returned genrt.StepOutcome, the
// fired transition's index (gen.SenderTrAck, …).
type Sender struct {
	sim     *netsim.Sim
	ep      *netsim.Endpoint
	peer    netsim.Addr
	machine gen.SenderMachine

	payloads [][]byte
	idx      int

	timer      netsim.Timer
	timeoutFn  func() // pre-bound onTimeout, so re-arming never closes over s
	rto        time.Duration
	maxRetries int
	retries    int
	obs        *obs.Shard    // sim's stats block
	sentAt     time.Duration // first-transmit time of the in-flight packet

	// Reusable hot-loop state. The machine reads ack only during the OK
	// call (the sender spec stores no message in a variable), so reuse
	// is safe.
	encBuf []byte
	ack    gen.Ack

	stats SenderStats
	done  bool
	ok    bool
	err   error
}

// NewSender builds a sender for the given payload sequence. It refuses
// to run unless arq.pdsl, the spec its machine was generated from,
// still compiles and checks.
func NewSender(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr,
	payloads [][]byte, rto time.Duration, maxRetries int) (*Sender, error) {
	if _, err := arqSpec(); err != nil {
		return nil, fmt.Errorf("arq: %w", err)
	}
	s := &Sender{
		sim: sim, ep: ep, peer: peer, machine: gen.NewSenderMachine(),
		payloads: payloads, rto: rto, maxRetries: maxRetries, obs: obs.Of(sim),
	}
	s.timeoutFn = s.onTimeout
	ep.SetHandler(s.onDatagram)
	return s, nil
}

// Start begins the transfer (schedules the first send).
func (s *Sender) Start() { s.sim.Post(s.advance) }

// OK reports whether the transfer completed with all payloads
// acknowledged (machine in Sent).
func (s *Sender) OK() bool { return s.ok }

// Err returns the first internal error (always nil in healthy runs;
// non-nil indicates a bug, since the spec is checked).
func (s *Sender) Err() error { return s.err }

// Stats returns the sender's counters.
func (s *Sender) Stats() SenderStats { return s.stats }

// State returns the machine's current state name.
func (s *Sender) State() string { return s.machine.StateName() }

// fail records an internal error and halts the transfer.
func (s *Sender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

// failStep records a machine error for event ev.
func (s *Sender) failStep(ev string, err error) {
	s.fail(fmt.Errorf("arq sender: %s in state %s: %w", ev, s.machine.StateName(), err))
}

func (s *Sender) finish(ok bool) {
	if s.done {
		return
	}
	s.done = true
	s.ok = ok
	if s.timer != nil {
		s.timer.Cancel()
	}
}

// advance sends the next payload, or finishes if none remain.
func (s *Sender) advance() {
	if s.done {
		return
	}
	if s.idx >= len(s.payloads) {
		if _, err := s.machine.FINISH(); err != nil {
			s.failStep(EvFinish, err)
			return
		}
		s.finish(true)
		return
	}
	s.transmit(false)
}

// transmit raises SEND (or re-raises it after FAIL/RETRY) and puts the
// staged packet on the wire.
func (s *Sender) transmit(isRetransmit bool) {
	out, err := s.machine.SEND(s.payloads[s.idx])
	if err != nil {
		s.failStep(EvSend, err)
		return
	}
	if out != gen.SenderTrSend {
		s.fail(fmt.Errorf("arq sender: SEND did not fire in state %s", s.machine.StateName()))
		return
	}
	enc, err := gen.AppendEncodePacket(s.encBuf[:0], &s.machine.OutPacket)
	if err != nil {
		// The generated encoder's only failure is a field out of range
		// (an oversize payload); report it with its wire class, as
		// arq.Codec's encoder does.
		s.fail(fmt.Errorf("arq sender: encode: %w: %w", wire.ErrBadFieldValue, err))
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
		s.obs.Inc(obs.Retransmits)
	} else {
		s.sentAt = s.sim.Now()
	}
	s.armTimer()
}

func (s *Sender) armTimer() {
	s.timer = netsim.Rearm(s.sim, s.timer, s.rto, s.timeoutFn)
}

// onDatagram handles anything arriving at the sender: only acks are
// expected. Validation happens *before* the machine sees the event, so
// the machine's OK transitions only ever observe verified acks:
// gen.DecodeAckInto leaves s.ack untouched unless every check passed.
func (s *Sender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	if err := gen.DecodeAckInto(&s.ack, data); err != nil {
		// Corrupted ack: the paper's FAIL transition — back to Ready and
		// retransmit immediately.
		s.stats.AcksCorrupted++
		out, serr := s.machine.FAIL()
		if serr != nil {
			s.failStep(EvFail, serr)
			return
		}
		if out == gen.SenderTrFail {
			s.transmit(true)
		}
		return
	}
	s.stats.AcksReceived++
	out, serr := s.machine.OK(&s.ack)
	if serr != nil {
		s.failStep(EvOK, serr)
		return
	}
	if out != gen.SenderTrAck {
		// Rejected (wrong seq) or ignored (stale in Ready).
		s.stats.StaleAcks++
		return
	}
	// The in-flight packet is acknowledged: advance. Karn's rule — only
	// a never-retransmitted packet yields a valid RTT sample.
	if s.retries == 0 {
		s.obs.RTT().Observe(s.sim.Now() - s.sentAt)
	}
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.retries = 0
	s.idx++
	s.advance()
}

// onTimeout handles retransmission-timer expiry.
func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	out, err := s.machine.TIMEOUT()
	if err != nil {
		s.failStep(EvTimeout, err)
		return
	}
	if out != gen.SenderTrTimeout {
		return // late timer in Ready: ignored by the spec
	}
	s.stats.Timeouts++
	s.obs.Inc(obs.Timeouts)
	s.retries++
	if s.retries > s.maxRetries {
		// The paper's Failure outcome: the machine rests in Timeout — a
		// consistent, declared end state (§3.4 guarantee 4).
		s.finish(false)
		return
	}
	if _, err := s.machine.RETRY(); err != nil {
		s.failStep(EvRetry, err)
		return
	}
	s.transmit(true)
}

// ReceiverStats counts receiver-side protocol events.
type ReceiverStats struct {
	PacketsReceived  int // validated packets delivered to the machine
	PacketsCorrupted int // packets that failed wire validation (dropped)
	Duplicates       int // retransmissions answered with duplicate acks
	AcksSent         int
}

// Receiver drives the checked ARQ receiver spec over a simulator
// endpoint, delivering accepted payloads in order. Like Sender, it runs
// the generated gen.ReceiverMachine and codec with a reusable decode
// target and encode buffer.
type Receiver struct {
	ep      *netsim.Endpoint
	peer    netsim.Addr
	machine gen.ReceiverMachine

	// Reusable hot-loop state (see Sender). pkt's payload aliases the
	// delivery buffer, which the handler owns from its decode on.
	encBuf []byte
	pkt    gen.Packet

	delivered [][]byte
	stats     ReceiverStats
	err       error
}

// NewReceiver builds a receiver running the machine generated from
// arq.pdsl's Receiver; like NewSender, it refuses a spec that no longer
// checks.
func NewReceiver(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr) (*Receiver, error) {
	if _, err := arqSpec(); err != nil {
		return nil, fmt.Errorf("arq: %w", err)
	}
	r := &Receiver{ep: ep, peer: peer, machine: gen.NewReceiverMachine()}
	ep.SetHandler(r.onDatagram)
	return r, nil
}

// Delivered returns the in-order payloads accepted so far.
func (r *Receiver) Delivered() [][]byte {
	out := make([][]byte, len(r.delivered))
	copy(out, r.delivered)
	return out
}

// Stats returns the receiver's counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// Err returns the first internal error (nil in healthy runs).
func (r *Receiver) Err() error { return r.err }

// Close raises the CLOSE event, moving the machine to its final state.
func (r *Receiver) Close() error {
	if _, err := r.machine.CLOSE(); err != nil {
		return fmt.Errorf("arq receiver: %s in state %s: %w", EvClose, r.machine.StateName(), err)
	}
	return nil
}

func (r *Receiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil || r.machine.StateIndex() == gen.ReceiverStClosed {
		return
	}
	// In-place decode: the payload aliases this delivery's buffer.
	if err := gen.DecodePacketInto(&r.pkt, data); err != nil {
		// Unverified packets are never processed (§3.4 guarantee 2): the
		// machine does not even see the event. The sender's timer covers
		// recovery.
		r.stats.PacketsCorrupted++
		return
	}
	r.stats.PacketsReceived++
	out, err := r.machine.RECV(&r.pkt)
	if err != nil {
		r.err = fmt.Errorf("arq receiver: %s in state %s: %w", EvRecv, r.machine.StateName(), err)
		return
	}
	switch out {
	case gen.ReceiverTrAccept:
		r.delivered = append(r.delivered, r.pkt.Payload)
	case gen.ReceiverTrDupack:
		r.stats.Duplicates++
	default:
		return // cannot happen: accept/dupack guards partition seq space
	}
	// Both transitions stage the ack that answers the packet.
	enc, err := gen.AppendEncodeAck(r.encBuf[:0], &r.machine.OutAck)
	if err != nil {
		r.err = fmt.Errorf("arq receiver: encode ack: %w", err)
		return
	}
	r.encBuf = enc[:0]
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = err
		return
	}
	r.stats.AcksSent++
}
