package arq

import (
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// This file holds selective repeat's rules for the shared window engine
// (window.go). Unlike go-back-N, each packet is acknowledged
// individually and retransmitted individually on its own timer, and the
// receiver buffers out-of-order arrivals inside its window — so one lost
// packet costs one retransmission, not a window's worth.

// srSender retransmits individually timed packets.
type srSender struct {
	WindowSender
	// timeouts holds one pre-bound timeout callback per window slot,
	// built at attach, so re-arming a packet's timer never builds a
	// closure. Callback k retransmits the payload slot k holds when it
	// fires: a slot's timer is cancelled before the slot is reused, so
	// that is always the payload the timer was armed for.
	timeouts []func()
}

// pump fills the window, arming one timer per packet.
func (s *srSender) pump() {
	if s.done {
		return
	}
	if s.base >= len(s.payloads) {
		s.finish(true)
		return
	}
	for s.next < len(s.payloads) && s.next-s.base < s.window {
		if err := s.send(s.next, false); err != nil {
			s.fail(err)
			return
		}
		s.next++
	}
}

// send transmits payload idx and (re)arms its timer.
func (s *srSender) send(idx int, retx bool) error {
	if err := s.transmit(idx, retx); err != nil {
		return err
	}
	slot := &s.slots[idx%s.window]
	slot.timer = netsim.Rearm(s.rt, slot.timer, s.rto.Current(), s.timeouts[idx%s.window])
	return nil
}

// onAck applies an individual ack to its in-flight packet. Stale acks
// (already acked or outside the window) are ignored.
func (s *srSender) onAck(_ netsim.Addr, data []byte) {
	ackSeq, ok := s.ackSeq(data)
	if !ok {
		return
	}
	for i := s.base; i < s.next; i++ {
		slot := &s.slots[i%s.window]
		if uint8(i%256) != ackSeq || slot.acked {
			continue
		}
		slot.acked = true
		s.rtoAck(slot, s.rt.Now())
		if slot.timer != nil {
			slot.timer.Cancel() // kept: the slot's next packet re-arms it
		}
		for s.base < s.next && s.slots[s.base%s.window].acked {
			s.base++
		}
		s.pump()
		return
	}
}

// onTimeout retransmits packet idx alone. A packet below base has been
// acked, and its slot may already hold a later packet.
func (s *srSender) onTimeout(idx int) {
	slot := &s.slots[idx%s.window]
	if s.done || idx < s.base || slot.acked {
		return
	}
	s.obs.Inc(obs.Timeouts)
	if slot.retries >= s.maxRetries {
		s.finish(false)
		return
	}
	s.rto.Backoff()
	if err := s.send(idx, true); err != nil {
		s.fail(err)
	}
}

// srRule buffers out-of-order packets inside its window and acks every
// validated packet individually.
type srRule struct {
	window int
	buffer map[int][]byte // out-of-order packets, keyed by absolute index
}

func (s *srRule) accept(r *WindowReceiver, seq uint8, payload []byte) (uint8, bool) {
	// Map the 8-bit sequence number to an absolute index relative to
	// expect. offset in [0, window) -> new packet; offset in
	// [256-window, 256) -> behind the window, i.e. an already-delivered
	// packet whose ack was lost: re-ack it. Anything else is impossible
	// for a well-behaved sender with window <= 127; drop it.
	offset := (int(seq) - r.expect%256 + 256) % 256
	switch {
	case offset < s.window:
		idx := r.expect + offset
		if _, dup := s.buffer[idx]; !dup {
			s.buffer[idx] = r.keep(payload)
		}
		for {
			p, ok := s.buffer[r.expect]
			if !ok {
				break
			}
			delete(s.buffer, r.expect)
			r.delivered = append(r.delivered, p)
			r.expect++
		}
	case offset >= 256-s.window:
		// duplicate of a delivered packet: re-ack it
	default:
		return 0, false
	}
	return seq, true
}

// StartSR attaches a selective-repeat flow to two existing *simulator*
// ports and schedules its first window on rt. Like StartGBN, many flows
// can share one runtime; the caller runs its event loop. For
// real-network (rtnet) flows attach the halves instead — AttachSRSender
// and NewSRReceiver (which copies what it keeps) — because rtnet
// recycles delivery buffers after each handler returns.
func StartSR(rt netsim.Runtime, sport, rport netsim.Port, cfg FlowConfig, payloads [][]byte) (*WindowFlow, error) {
	recv, err := NewSRReceiver(rport, sport.Addr(), cfg)
	if err != nil {
		return nil, err
	}
	return startFlow(rt, sport, rport, recv, AttachSRSender, cfg, payloads)
}

// AttachSRSender attaches a selective-repeat sender to port, talking to
// peer, and schedules its first window on rt. The port's handler is
// taken over. onDone, if non-nil, runs inside the event loop when the
// transfer finishes.
func AttachSRSender(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*WindowSender, error) {
	s := &srSender{}
	if err := s.init(rt, port, peer, cfg, payloads, onDone); err != nil {
		return nil, err
	}
	s.timeouts = make([]func(), s.window)
	for k := range s.timeouts {
		s.timeouts[k] = func() { s.onTimeout(s.slots[k].idx) }
	}
	port.SetHandler(s.onAck)
	rt.Post(s.pump)
	return &s.WindowSender, nil
}

// NewSRReceiver builds a selective-repeat receiver that acks to peer
// over port. cfg.Window must match the sender's window for wrap safety.
func NewSRReceiver(port netsim.Port, peer netsim.Addr, cfg FlowConfig) (*WindowReceiver, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return newWindowReceiver(port, peer, &srRule{window: cfg.Window, buffer: make(map[int][]byte)})
}
