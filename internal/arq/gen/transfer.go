package gen

import (
	"errors"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
)

// RunTransfer runs the same stop-and-wait workload as arq.RunTransfer,
// driven only through the generated typed-state API and codec. Given
// identical Config and payloads the two produce identical protocol
// behaviour — the interpreter-vs-generated ablation of DESIGN.md §6.
// The Result carries OK, SenderState, Delivered and the sender's
// PacketsSent and Retransmits; the other statistics are left zero.
func RunTransfer(cfg arq.Config, payloads [][]byte) (*arq.Result, error) {
	if cfg.RTO == 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
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

	recv := &genReceiver{ep: rEP, peer: sEP.Addr(), state: NewReceiver()}
	rEP.SetHandler(recv.onDatagram)
	send := &genSender{
		sim: sim, ep: sEP, peer: rEP.Addr(), state: NewSender(),
		payloads: payloads, rto: cfg.RTO, maxRetries: cfg.MaxRetries,
	}
	sEP.SetHandler(send.onDatagram)
	sim.Post(send.advance)
	if err := sim.RunUntilIdle(100000); err != nil {
		return nil, err
	}
	if send.err != nil {
		return nil, send.err
	}
	if recv.err != nil {
		return nil, recv.err
	}
	return &arq.Result{
		OK: send.ok, SenderState: send.state.StateName(), Delivered: recv.delivered,
		Sender: arq.SenderStats{PacketsSent: send.packetsSent, Retransmits: send.retransmits},
	}, nil
}

// genSender drives the generated machine over the simulator — the
// generated analogue of arq.Sender.
type genSender struct {
	sim  *netsim.Sim
	ep   *netsim.Endpoint
	peer netsim.Addr

	state    interface{ StateName() string }
	payloads [][]byte
	idx      int

	timer      netsim.Timer
	rto        time.Duration
	maxRetries int
	retries    int

	packetsSent, retransmits int
	done, ok                 bool
	err                      error
}

func (s *genSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *genSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done, s.ok = true, ok
	if s.timer != nil {
		s.timer.Cancel()
	}
}

func (s *genSender) advance() {
	if s.done {
		return
	}
	ready, isReady := s.state.(SenderReady)
	if !isReady {
		s.fail(errors.New("advance outside Ready"))
		return
	}
	if s.idx >= len(s.payloads) {
		sent, err := ready.Finish()
		if err != nil {
			s.fail(err)
			return
		}
		s.state = sent
		s.finish(true)
		return
	}
	s.transmit(ready, false)
}

func (s *genSender) transmit(ready SenderReady, retrans bool) {
	wait, pkt, err := ready.Send(s.payloads[s.idx])
	if err != nil {
		s.fail(err)
		return
	}
	s.state = wait
	enc, err := EncodePacket(pkt)
	if err != nil {
		s.fail(err)
		return
	}
	if err := s.ep.Send(s.peer, enc); err != nil {
		s.fail(err)
		return
	}
	s.packetsSent++
	if retrans {
		s.retransmits++
	}
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.timer = s.sim.After(s.rto, s.onTimeout)
}

func (s *genSender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	wait, isWait := s.state.(SenderWait)
	ack, err := DecodeAck(data)
	if err != nil {
		if !isWait {
			return
		}
		ready, ferr := wait.Fail()
		if ferr != nil {
			s.fail(ferr)
			return
		}
		s.state = ready
		s.transmit(ready, true)
		return
	}
	if !isWait {
		return
	}
	ready, err := wait.Ack(ack)
	if err != nil {
		return // guard rejection: stale ack
	}
	s.state = ready
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.retries = 0
	s.idx++
	s.advance()
}

func (s *genSender) onTimeout() {
	if s.done {
		return
	}
	wait, isWait := s.state.(SenderWait)
	if !isWait {
		return
	}
	timedOut, err := wait.Timeout()
	if err != nil {
		s.fail(err)
		return
	}
	s.state = timedOut
	s.retries++
	if s.retries > s.maxRetries {
		s.finish(false)
		return
	}
	ready, err := timedOut.Retry()
	if err != nil {
		s.fail(err)
		return
	}
	s.state = ready
	s.transmit(ready, true)
}

// genReceiver drives the generated receiver.
type genReceiver struct {
	ep        *netsim.Endpoint
	peer      netsim.Addr
	state     ReceiverReadyFor
	delivered [][]byte
	err       error
}

func (r *genReceiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	pkt, err := DecodePacket(data)
	if err != nil {
		return // unverified: dropped before any processing
	}
	var ackOut Ack
	if next, out, aerr := r.state.Accept(pkt); aerr == nil {
		r.state = next
		r.delivered = append(r.delivered, pkt.Value().Payload)
		ackOut = out
	} else if same, out, derr := r.state.Dupack(pkt); derr == nil {
		r.state = same
		ackOut = out
	} else {
		return // unreachable: the guards partition the space
	}
	enc, err := EncodeAck(ackOut)
	if err != nil {
		r.err = err
		return
	}
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = err
	}
}
