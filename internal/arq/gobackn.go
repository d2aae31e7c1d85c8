package arq

import (
	"fmt"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// This file holds go-back-N's rules for the shared window engine
// (window.go): a sliding window of up to W unacknowledged packets with
// cumulative acknowledgements and one window timer. It is the natural
// "richer protocol built from the same library pieces" the paper's §1.1
// asks for (building new protocols "quickly and easily" from reusable
// parts): the wire messages are unchanged, and the windowed sender
// demonstrates why stop-and-wait throughput collapses on long-delay
// links — the DESIGN.md §6 window ablation.

// GBNConfig parameterises a go-back-N transfer.
type GBNConfig struct {
	Link        netsim.LinkParams
	RTO         time.Duration
	Adaptive    bool // RFC-6298 adaptive RTO (see FlowConfig.Adaptive)
	MaxRetries  int  // retransmission rounds per window before giving up
	Window      int  // sender window size (1 = stop-and-wait behaviour)
	Seed        int64
	EventBudget int
	// Faults, if non-nil, layers the fault schedule over the link, one
	// private injector per direction (instance ids 0 and 1).
	Faults *faults.Schedule
}

// gbnSender slides a window of in-flight packets under one timer.
type gbnSender struct {
	WindowSender
	retries   int    // timeouts since the window last advanced
	timeoutFn func() // pre-bound onTimeout, so re-arming never closes over s
}

// pump fills the window and restarts the window timer.
func (s *gbnSender) pump() {
	if s.done {
		return
	}
	if s.base >= len(s.payloads) {
		s.finish(true)
		return
	}
	for s.next < len(s.payloads) && s.next-s.base < s.window {
		if err := s.transmit(s.next, false); err != nil {
			s.fail(err)
			return
		}
		s.next++
	}
	s.armTimer()
}

func (s *gbnSender) armTimer() {
	if s.base < len(s.payloads) {
		s.timer = netsim.Rearm(s.rt, s.timer, s.rto.Current(), s.timeoutFn)
	} else if s.timer != nil {
		s.timer.Cancel()
	}
}

// onAck applies a cumulative ack: seq acknowledges every packet up to
// and including that sequence number. An ack outside the window is a
// stale duplicate and is ignored.
func (s *gbnSender) onAck(_ netsim.Addr, data []byte) {
	ackSeq, ok := s.ackSeq(data)
	if !ok {
		return
	}
	for i := s.base; i < s.next; i++ {
		if uint8(i%256) == ackSeq {
			now := s.rt.Now()
			for j := s.base; j <= i; j++ {
				s.rtoAck(&s.slots[j%s.window], now)
			}
			s.base = i + 1
			s.retries = 0
			s.pump()
			return
		}
	}
}

// onTimeout goes back N: it retransmits the whole window.
func (s *gbnSender) onTimeout() {
	if s.done {
		return
	}
	s.obs.Inc(obs.Timeouts)
	s.retries++
	if s.retries > s.maxRetries {
		s.finish(false)
		return
	}
	s.rto.Backoff()
	for i := s.base; i < s.next; i++ {
		if err := s.transmit(i, true); err != nil {
			s.fail(err)
			return
		}
	}
	s.armTimer()
}

// gbnRule accepts in-order packets only and cumulatively acks the last
// in-order sequence number.
type gbnRule struct{}

func (gbnRule) accept(r *WindowReceiver, seq uint8, payload []byte) (uint8, bool) {
	if seq == uint8(r.expect%256) {
		r.delivered = append(r.delivered, r.keep(payload))
		r.expect++
	}
	// Cumulative ack for the last in-order packet (none yet -> none).
	return uint8((r.expect - 1) % 256), r.expect > 0
}

// StartGBN attaches a go-back-N flow to two existing *simulator* ports
// — endpoints or mux flow ports, whose delivery buffers are
// handler-owned — and schedules its first window on rt. Many flows can
// share one runtime (and one bottleneck link, via netsim.Mux); the
// caller runs the runtime's event loop. For real-network (rtnet) flows,
// whose delivery buffers are recycled, attach the halves instead:
// AttachGBNSender on the sending node, NewGBNReceiver (which copies
// what it keeps) on the receiving one.
func StartGBN(rt netsim.Runtime, sport, rport netsim.Port, cfg FlowConfig, payloads [][]byte) (*WindowFlow, error) {
	recv, err := NewGBNReceiver(rport, sport.Addr())
	if err != nil {
		return nil, err
	}
	return startFlow(rt, sport, rport, recv, AttachGBNSender, cfg, payloads)
}

// AttachGBNSender attaches a go-back-N sender to port, talking to peer,
// and schedules its first window on rt — the real-network deployment
// shape, where the receiver lives in another process (see internal/rtnet
// and cmd/protoserve). The port's handler is taken over (acks arrive
// there). onDone, if non-nil, runs inside the event loop when the
// transfer finishes (successfully or not); rtnet callers use it to
// signal a waiting goroutine.
func AttachGBNSender(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*WindowSender, error) {
	s := &gbnSender{}
	if err := s.init(rt, port, peer, cfg, payloads, onDone); err != nil {
		return nil, err
	}
	s.timeoutFn = s.onTimeout
	port.SetHandler(s.onAck)
	rt.Post(s.pump)
	return &s.WindowSender, nil
}

// NewGBNReceiver builds a go-back-N receiver that acks to peer over port.
func NewGBNReceiver(port netsim.Port, peer netsim.Addr) (*WindowReceiver, error) {
	return newWindowReceiver(port, peer, gbnRule{})
}

// RunTransferGBN runs a go-back-N transfer. Window 0 selects 8.
func RunTransferGBN(cfg GBNConfig, payloads [][]byte) (*WindowResult, error) {
	fcfg := FlowConfig{Window: cfg.Window, RTO: cfg.RTO, MaxRetries: cfg.MaxRetries, Adaptive: cfg.Adaptive}
	if err := fcfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.EventBudget == 0 {
		cfg.EventBudget = 20000 + 100*len(payloads)*(fcfg.MaxRetries+2)
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
	if err := connectWithFaults(sim, sEP, rEP, cfg.Link, cfg.Faults); err != nil {
		return nil, err
	}

	flow, err := StartGBN(sim, sEP, rEP, fcfg, payloads)
	if err != nil {
		return nil, err
	}
	if err := sim.RunUntilIdle(cfg.EventBudget); err != nil {
		return nil, fmt.Errorf("arq gbn: %w", err)
	}
	if err := flow.Err(); err != nil {
		return nil, err
	}
	res := flow.Result()
	res.Obs = sim.Obs().Snapshot()
	return res, nil
}
