package arq

import (
	"fmt"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
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
// The machine executes the spec's compiled program (fsm.Program) through
// the slot-frame path end to end: acks are decoded into the codec's
// reusable frame, handed to the machine as slot-backed message values
// (expr.FrameMsg), and fired outputs come back as slot frames the wire
// program encodes directly — the steady-state send/ack loop touches no
// map, hashes no string and does not allocate.
type Sender struct {
	sim     *netsim.Sim
	ep      *netsim.Endpoint
	peer    netsim.Addr
	machine *fsm.Machine
	codec   *Codec

	payloads [][]byte
	idx      int
	current  []byte

	timer      netsim.Timer
	timeoutFn  func() // pre-bound onTimeout, so re-arming never closes over s
	rto        time.Duration
	maxRetries int
	retries    int
	obs        *obs.Shard    // sim's stats block
	sentAt     time.Duration // first-transmit time of the in-flight packet

	// Reusable hot-loop state. The frame views handed to the machine are
	// only read during the StepEv call (the sender spec stores no message
	// or bytes parameter in a variable), so reuse is safe.
	encBuf                                             []byte
	ackShape                                           *expr.MsgShape
	evSend, evOK, evFail, evTimeout, evRetry, evFinish fsm.EventID

	stats SenderStats
	done  bool
	ok    bool
	err   error
}

// NewSender builds a sender for the given payload sequence. The machine
// is instantiated from arq.pdsl's Sender program, compiled and checked
// once per process.
func NewSender(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr,
	payloads [][]byte, rto time.Duration, maxRetries int) (*Sender, error) {
	prog, err := program("Sender")
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	machine := prog.NewMachine()
	s := &Sender{
		sim: sim, ep: ep, peer: peer, machine: machine, codec: codec,
		payloads: payloads, rto: rto, maxRetries: maxRetries,
		ackShape: prog.MsgShape("Ack"), obs: obs.Of(sim),
	}
	s.evSend, _ = machine.EventID(EvSend)
	s.evOK, _ = machine.EventID(EvOK)
	s.evFail, _ = machine.EventID(EvFail)
	s.evTimeout, _ = machine.EventID(EvTimeout)
	s.evRetry, _ = machine.EventID(EvRetry)
	s.evFinish, _ = machine.EventID(EvFinish)
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
func (s *Sender) State() string { return s.machine.State() }

// fail records an internal error and halts the transfer.
func (s *Sender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
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
		if _, err := s.machine.StepEv(s.evFinish); err != nil {
			s.fail(err)
			return
		}
		s.finish(true)
		return
	}
	s.current = s.payloads[s.idx]
	s.transmit(false)
}

// transmit raises SEND (or re-raises it after FAIL/RETRY) and puts the
// emitted packet on the wire.
func (s *Sender) transmit(isRetransmit bool) {
	res, err := s.machine.StepEv(s.evSend, expr.BytesView(s.current))
	if err != nil {
		s.fail(err)
		return
	}
	if res.Fired == nil {
		s.fail(fmt.Errorf("arq sender: SEND did not fire in state %s", res.From))
		return
	}
	out := res.Outputs[0]
	enc, err := s.codec.PacketProgram().AppendEncode(s.encBuf[:0], out.Frame)
	if err != nil {
		s.fail(fmt.Errorf("arq sender: encode: %w", err))
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
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.timer = s.sim.After(s.rto, s.timeoutFn)
}

// onDatagram handles anything arriving at the sender: only acks are
// expected. Validation happens *before* the machine sees the event, so
// the machine's OK transitions only ever observe verified acks.
func (s *Sender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	frame, err := s.codec.DecodeAckFrame(data)
	if err != nil {
		// Corrupted ack: the paper's FAIL transition — back to Ready and
		// retransmit immediately.
		s.stats.AcksCorrupted++
		res, serr := s.machine.StepEv(s.evFail)
		if serr != nil {
			s.fail(serr)
			return
		}
		if res.Fired != nil && res.To == StReady {
			s.transmit(true)
		}
		return
	}
	s.stats.AcksReceived++
	// The decoded frame (checksum already verified) goes to the machine
	// as a slot-backed message: the `ack.seq == seq` guard reads the seq
	// slot by index.
	res, serr := s.machine.StepEv(s.evOK, expr.FrameMsg(s.ackShape, frame))
	if serr != nil {
		s.fail(serr)
		return
	}
	switch {
	case res.Fired != nil && res.Fired.Name == "ack":
		// The in-flight packet is acknowledged: advance. Karn's rule —
		// only a never-retransmitted packet yields a valid RTT sample.
		if s.retries == 0 {
			s.obs.RTT().Observe(s.sim.Now() - s.sentAt)
		}
		if s.timer != nil {
			s.timer.Cancel()
		}
		s.retries = 0
		s.idx++
		s.advance()
	default:
		// Rejected (wrong seq) or ignored (stale in Ready).
		s.stats.StaleAcks++
	}
}

// onTimeout handles retransmission-timer expiry.
func (s *Sender) onTimeout() {
	if s.done {
		return
	}
	res, err := s.machine.StepEv(s.evTimeout)
	if err != nil {
		s.fail(err)
		return
	}
	if res.Fired == nil {
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
	if _, err := s.machine.StepEv(s.evRetry); err != nil {
		s.fail(err)
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
// the compiled program on the slot-frame path with reusable frames and
// buffers.
type Receiver struct {
	ep      *netsim.Endpoint
	peer    netsim.Addr
	machine *fsm.Machine
	codec   *Codec

	// Reusable hot-loop state (see Sender).
	encBuf          []byte
	pktShape        *expr.MsgShape
	evRecv, evClose fsm.EventID

	delivered [][]byte
	stats     ReceiverStats
	err       error
}

// NewReceiver builds a receiver running arq.pdsl's Receiver program.
func NewReceiver(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr) (*Receiver, error) {
	prog, err := program("Receiver")
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	machine := prog.NewMachine()
	r := &Receiver{
		ep: ep, peer: peer, machine: machine, codec: codec,
		pktShape: prog.MsgShape("Packet"),
	}
	r.evRecv, _ = machine.EventID(EvRecv)
	r.evClose, _ = machine.EventID(EvClose)
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
	_, err := r.machine.StepEv(r.evClose)
	return err
}

func (r *Receiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil || r.machine.State() == StClosed {
		return
	}
	// In-place decode straight into the codec's slot frame: the payload
	// aliases this delivery's buffer, which the handler owns from here on.
	frame, err := r.codec.DecodePacketFrame(data)
	if err != nil {
		// Unverified packets are never processed (§3.4 guarantee 2): the
		// machine does not even see the event. The sender's timer covers
		// recovery.
		r.stats.PacketsCorrupted++
		return
	}
	r.stats.PacketsReceived++
	res, serr := r.machine.StepEv(r.evRecv, expr.FrameMsg(r.pktShape, frame))
	if serr != nil {
		r.err = serr
		return
	}
	if res.Fired == nil {
		return // cannot happen: accept/dupack guards partition seq space
	}
	if res.Fired.Name == "accept" {
		r.delivered = append(r.delivered, frame.Get(r.codec.PacketPayloadSlot()).RawBytes())
	} else {
		r.stats.Duplicates++
	}
	for _, out := range res.Outputs {
		enc, eerr := r.codec.AckProgram().AppendEncode(r.encBuf[:0], out.Frame)
		if eerr != nil {
			r.err = fmt.Errorf("arq receiver: encode ack: %w", eerr)
			return
		}
		r.encBuf = enc[:0]
		if err := r.ep.Send(r.peer, enc); err != nil {
			r.err = err
			return
		}
		r.stats.AcksSent++
	}
}
