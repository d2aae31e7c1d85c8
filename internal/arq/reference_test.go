package arq

import (
	"fmt"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// The interpreter reference for the stop-and-wait engines: the same
// endpoints driven through fsm.Machine.StepEv on the programs arqSpec
// compiles from arq.pdsl, with the slot-program codec. Sender and
// Receiver run the flat machines and codec generated from that text;
// runReferenceTransfer is the transfer they must reproduce exactly
// (TestGeneratedEquivalentToInterpreter and friends).

// refProgram returns the shared compiled program of one arq.pdsl
// machine.
func refProgram(machine string) (*fsm.Program, error) {
	proto, err := arqSpec()
	if err != nil {
		return nil, err
	}
	prog, ok := proto.Program(machine)
	if !ok {
		return nil, fmt.Errorf("arq.pdsl has no machine %s", machine)
	}
	return prog, nil
}

// refSender is Sender on the interpreter.
type refSender struct {
	sim     *netsim.Sim
	ep      *netsim.Endpoint
	peer    netsim.Addr
	machine *fsm.Machine
	codec   *Codec

	payloads [][]byte
	idx      int

	timer      netsim.Timer
	rto        time.Duration
	maxRetries int
	retries    int
	obs        *obs.Shard
	sentAt     time.Duration

	encBuf                                             []byte
	ackFrame                                           *expr.Frame
	ackShape                                           *expr.MsgShape
	evSend, evOK, evFail, evTimeout, evRetry, evFinish fsm.EventID

	stats SenderStats
	done  bool
	ok    bool
	err   error
}

func newRefSender(sim *netsim.Sim, ep *netsim.Endpoint, peer netsim.Addr,
	payloads [][]byte, rto time.Duration, maxRetries int) (*refSender, error) {
	prog, err := refProgram("Sender")
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	machine := prog.NewMachine()
	s := &refSender{
		sim: sim, ep: ep, peer: peer, machine: machine, codec: codec,
		payloads: payloads, rto: rto, maxRetries: maxRetries,
		ackFrame: codec.AckProgram().NewFrame(), ackShape: prog.MsgShape("Ack"), obs: obs.Of(sim),
	}
	s.evSend, _ = machine.EventID(EvSend)
	s.evOK, _ = machine.EventID(EvOK)
	s.evFail, _ = machine.EventID(EvFail)
	s.evTimeout, _ = machine.EventID(EvTimeout)
	s.evRetry, _ = machine.EventID(EvRetry)
	s.evFinish, _ = machine.EventID(EvFinish)
	ep.SetHandler(s.onDatagram)
	return s, nil
}

func (s *refSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *refSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done = true
	s.ok = ok
	if s.timer != nil {
		s.timer.Cancel()
	}
}

func (s *refSender) advance() {
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
	s.transmit(false)
}

func (s *refSender) transmit(isRetransmit bool) {
	res, err := s.machine.StepEv(s.evSend, expr.BytesView(s.payloads[s.idx]))
	if err != nil {
		s.fail(err)
		return
	}
	if res.Fired == nil {
		s.fail(fmt.Errorf("reference sender: SEND did not fire in state %s", res.From))
		return
	}
	enc, err := s.codec.PacketProgram().AppendEncode(s.encBuf[:0], res.Outputs[0].Frame)
	if err != nil {
		s.fail(fmt.Errorf("reference sender: encode: %w", err))
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
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.timer = s.sim.After(s.rto, s.onTimeout)
}

func (s *refSender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	if err := s.codec.AckProgram().DecodeInto(s.ackFrame, data); err != nil {
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
	res, serr := s.machine.StepEv(s.evOK, expr.FrameMsg(s.ackShape, s.ackFrame))
	if serr != nil {
		s.fail(serr)
		return
	}
	if res.Fired == nil || res.Fired.Name != "ack" {
		s.stats.StaleAcks++
		return
	}
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

func (s *refSender) onTimeout() {
	if s.done {
		return
	}
	res, err := s.machine.StepEv(s.evTimeout)
	if err != nil {
		s.fail(err)
		return
	}
	if res.Fired == nil {
		return
	}
	s.stats.Timeouts++
	s.obs.Inc(obs.Timeouts)
	s.retries++
	if s.retries > s.maxRetries {
		s.finish(false)
		return
	}
	if _, err := s.machine.StepEv(s.evRetry); err != nil {
		s.fail(err)
		return
	}
	s.transmit(true)
}

// refReceiver is Receiver on the interpreter.
type refReceiver struct {
	ep      *netsim.Endpoint
	peer    netsim.Addr
	machine *fsm.Machine
	codec   *Codec

	encBuf          []byte
	pktFrame        *expr.Frame
	pktShape        *expr.MsgShape
	payloadSlot     int
	evRecv, evClose fsm.EventID

	delivered [][]byte
	stats     ReceiverStats
	err       error
}

func newRefReceiver(ep *netsim.Endpoint, peer netsim.Addr) (*refReceiver, error) {
	prog, err := refProgram("Receiver")
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	machine := prog.NewMachine()
	r := &refReceiver{
		ep: ep, peer: peer, machine: machine, codec: codec,
		pktFrame: codec.PacketProgram().NewFrame(), pktShape: prog.MsgShape("Packet"),
	}
	r.payloadSlot, _ = codec.PacketProgram().Slot("payload")
	r.evRecv, _ = machine.EventID(EvRecv)
	r.evClose, _ = machine.EventID(EvClose)
	ep.SetHandler(r.onDatagram)
	return r, nil
}

func (r *refReceiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil || r.machine.State() == "Closed" {
		return
	}
	if err := r.codec.PacketProgram().DecodeInto(r.pktFrame, data); err != nil {
		r.stats.PacketsCorrupted++
		return
	}
	r.stats.PacketsReceived++
	res, serr := r.machine.StepEv(r.evRecv, expr.FrameMsg(r.pktShape, r.pktFrame))
	if serr != nil {
		r.err = serr
		return
	}
	if res.Fired == nil {
		return
	}
	if res.Fired.Name == "accept" {
		r.delivered = append(r.delivered, r.pktFrame.Get(r.payloadSlot).RawBytes())
	} else {
		r.stats.Duplicates++
	}
	for _, out := range res.Outputs {
		enc, eerr := r.codec.AckProgram().AppendEncode(r.encBuf[:0], out.Frame)
		if eerr != nil {
			r.err = fmt.Errorf("reference receiver: encode ack: %w", eerr)
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

// runReferenceTransfer is RunTransfer on the interpreter endpoints.
func runReferenceTransfer(cfg Config, payloads [][]byte) (*Result, error) {
	cfg = cfg.withDefaults(len(payloads))
	sim, sEP, rEP, err := newTransferSim(cfg)
	if err != nil {
		return nil, err
	}
	recv, err := newRefReceiver(rEP, sEP.Addr())
	if err != nil {
		return nil, err
	}
	send, err := newRefSender(sim, sEP, rEP.Addr(), payloads, cfg.RTO, cfg.MaxRetries)
	if err != nil {
		return nil, err
	}
	sim.Post(send.advance)
	if err := sim.RunUntilIdle(cfg.EventBudget); err != nil {
		return nil, err
	}
	if send.err != nil {
		return nil, send.err
	}
	if recv.err != nil {
		return nil, recv.err
	}
	if _, err := recv.machine.StepEv(recv.evClose); err != nil {
		return nil, err
	}
	delivered := make([][]byte, len(recv.delivered))
	copy(delivered, recv.delivered)
	return &Result{
		OK:          send.ok,
		SenderState: send.machine.State(),
		Delivered:   delivered,
		Duration:    sim.Now(),
		Sender:      send.stats,
		Receiver:    recv.stats,
		Network:     sim.Stats(),
		Obs:         sim.Obs().Snapshot(),
	}, nil
}
