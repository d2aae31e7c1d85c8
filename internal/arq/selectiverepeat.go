package arq

import (
	"fmt"
	"time"

	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// This file implements selective repeat, the third rung of the ARQ
// ladder the paper's §1.1 asks the language pieces to climb quickly:
// stop-and-wait -> go-back-N -> selective repeat, all over the same wire
// messages. Unlike go-back-N, each packet is acknowledged individually
// and retransmitted individually on its own timer, and the receiver
// buffers out-of-order arrivals inside its window — so one lost packet
// costs one retransmission, not a window's worth.
//
// The 8-bit sequence space caps the window at 127 (< 256/2), which keeps
// old and new sequence numbers distinguishable after wrap on both sides.

// SRResult reports a selective-repeat transfer.
type SRResult struct {
	OK          bool
	Delivered   [][]byte
	PacketsSent int
	Retransmits int
	Duration    time.Duration
}

// srPacket is the sender's in-flight bookkeeping for one payload.
type srPacket struct {
	acked   bool
	retries int
	timer   netsim.Timer
	sentAt  time.Duration // first-transmit time, for Karn-filtered RTT samples
}

// srSender retransmits individually timed packets.
type srSender struct {
	rt    netsim.Runtime
	ep    netsim.Port
	peer  netsim.Addr
	codec *Codec

	payloads [][]byte
	state    []srPacket
	base     int // oldest unacked payload index
	next     int // next payload index to send
	window   int

	rto        rtoState
	maxRetries int
	obs        *obs.Shard // runtime's stats block (discard when it has none)

	encBuf     []byte
	sent       int
	retrans    int
	done       bool
	ok         bool
	finishedAt time.Duration
	err        error
	notify     func() // optional completion hook, runs inside the event loop
}

func (s *srSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *srSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done, s.ok = true, ok
	s.finishedAt = s.rt.Now()
	for i := s.base; i < s.next; i++ {
		if t := s.state[i].timer; t != nil {
			t.Cancel()
		}
	}
	if s.notify != nil {
		s.notify()
	}
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
		idx := s.next
		s.next++
		if err := s.transmit(idx, false); err != nil {
			s.fail(err)
			return
		}
	}
}

func (s *srSender) transmit(idx int, isRetrans bool) error {
	enc, err := s.codec.AppendEncodePacket(s.encBuf[:0], uint8(idx%256), s.payloads[idx])
	if err != nil {
		return err
	}
	s.encBuf = enc[:0]
	if err := s.ep.Send(s.peer, enc); err != nil {
		return err
	}
	s.sent++
	if isRetrans {
		s.retrans++
		s.obs.Inc(obs.Retransmits)
	} else {
		s.state[idx].sentAt = s.rt.Now()
	}
	if t := s.state[idx].timer; t != nil {
		t.Cancel()
	}
	s.state[idx].timer = s.rt.After(s.rto.current(), func() { s.onTimeout(idx) })
	return nil
}

func (s *srSender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	ack, err := s.codec.DecodeAckInPlace(data)
	if err != nil {
		return // corrupted ack: the per-packet timer recovers
	}
	// Individual ack: find the matching in-flight packet. Stale acks
	// (already-acked or outside the window) are ignored.
	ackSeq := ack.Value().Seq
	for i := s.base; i < s.next; i++ {
		if uint8(i%256) != ackSeq || s.state[i].acked {
			continue
		}
		s.state[i].acked = true
		// Karn's rule: only a never-retransmitted packet yields a valid
		// RTT sample (retries counts retransmissions of this packet).
		if s.state[i].retries == 0 {
			rtt := s.rt.Now() - s.state[i].sentAt
			s.obs.RTT().Observe(rtt)
			s.rto.sample(rtt)
		}
		// Any newly-acked packet is forward progress: clear backoff even
		// when Karn's rule suppressed the sample.
		s.rto.progress()
		if t := s.state[i].timer; t != nil {
			t.Cancel()
			s.state[i].timer = nil
		}
		for s.base < s.next && s.state[s.base].acked {
			s.base++
		}
		s.pump()
		return
	}
}

func (s *srSender) onTimeout(idx int) {
	if s.done || s.state[idx].acked {
		return
	}
	s.obs.Inc(obs.Timeouts)
	s.state[idx].retries++
	if s.state[idx].retries > s.maxRetries {
		s.finish(false)
		return
	}
	s.rto.backoff()
	if err := s.transmit(idx, true); err != nil {
		s.fail(err)
	}
}

// srReceiver buffers out-of-order packets inside its window and acks
// every validated packet individually.
type srReceiver struct {
	ep     netsim.Port
	peer   netsim.Addr
	codec  *Codec
	window int

	expect    int            // next in-order payload index to deliver
	buffer    map[int][]byte // out-of-order packets, keyed by absolute index
	encBuf    []byte
	delivered [][]byte
	clone     bool // copy buffered payloads (real-socket delivery buffers are recycled)
	err       error
}

func (r *srReceiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	pkt, err := r.codec.DecodePacketInPlace(data)
	if err != nil {
		return // unverified packets are never processed
	}
	v := pkt.Value()
	// Map the 8-bit sequence number to an absolute index relative to
	// expect. offset in [0, window) -> new packet; offset in
	// [256-window, 256) -> behind the window, i.e. an already-delivered
	// packet whose ack was lost: re-ack it. Anything else is impossible
	// for a well-behaved sender with window <= 127; drop it.
	offset := (int(v.Seq) - r.expect%256 + 256) % 256
	switch {
	case offset < r.window:
		idx := r.expect + offset
		if _, dup := r.buffer[idx]; !dup {
			// The payload aliases this delivery's buffer, which the
			// handler owns from here on — buffering the alias is safe in
			// the simulator. Under rtnet the buffer is recycled after the
			// handler returns, so clone receivers copy it.
			p := v.Payload
			if r.clone {
				p = append([]byte(nil), p...)
			}
			r.buffer[idx] = p
		}
		for {
			p, ok := r.buffer[r.expect]
			if !ok {
				break
			}
			delete(r.buffer, r.expect)
			r.delivered = append(r.delivered, p)
			r.expect++
		}
	case offset >= 256-r.window:
		// duplicate of a delivered packet: fall through to re-ack
	default:
		return
	}
	enc, err := r.codec.AppendEncodeAck(r.encBuf[:0], v.Seq)
	if err != nil {
		r.err = err
		return
	}
	r.encBuf = enc[:0]
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = err
	}
}

// SRFlow is a selective-repeat sender/receiver pair attached to
// caller-owned ports (see StartSR).
type SRFlow struct {
	send *srSender
	recv *srReceiver
}

// Done reports whether the sender has finished (successfully or not).
func (f *SRFlow) Done() bool { return f.send.done }

// Err returns the first internal error of either side.
func (f *SRFlow) Err() error {
	if f.send.err != nil {
		return fmt.Errorf("arq sr: sender: %w", f.send.err)
	}
	if f.recv.err != nil {
		return fmt.Errorf("arq sr: receiver: %w", f.recv.err)
	}
	return nil
}

// Result snapshots the flow's outcome (see GBNFlow.Result).
func (f *SRFlow) Result() *SRResult {
	return &SRResult{
		OK:          f.send.ok,
		Delivered:   f.recv.delivered,
		PacketsSent: f.send.sent,
		Retransmits: f.send.retrans,
		Duration:    f.send.finishedAt,
	}
}

// StartSR attaches a selective-repeat flow to two existing *simulator*
// ports and schedules its first window on rt. Like StartGBN, many flows
// can share one runtime; the caller runs its event loop. For
// real-network (rtnet) flows attach the halves instead — AttachSRSender
// and NewSRReceiver (which copies what it keeps) — because rtnet
// recycles delivery buffers after each handler returns.
func StartSR(rt netsim.Runtime, sport, rport netsim.Port, cfg FlowConfig, payloads [][]byte) (*SRFlow, error) {
	recv, err := NewSRReceiver(rport, sport.Addr(), cfg)
	if err != nil {
		return nil, err
	}
	recv.r.clone = false // in-process delivery buffers are handler-owned
	rport.SetHandler(recv.OnDatagram)
	send, err := AttachSRSender(rt, sport, rport.Addr(), cfg, payloads, nil)
	if err != nil {
		return nil, err
	}
	return &SRFlow{send: send.s, recv: recv.r}, nil
}

// SRSender is the sender half of a selective-repeat flow attached on its
// own — the real-network deployment shape (see internal/rtnet).
type SRSender struct{ s *srSender }

// AttachSRSender attaches a selective-repeat sender to port, talking to
// peer, and schedules its first window on rt. The port's handler is
// taken over. onDone, if non-nil, runs inside the event loop when the
// transfer finishes.
func AttachSRSender(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*SRSender, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	sh := obs.Of(rt)
	send := &srSender{
		rt: rt, ep: port, peer: peer, codec: codec,
		payloads: payloads, state: make([]srPacket, len(payloads)),
		window: cfg.Window, rto: newRTOState(&cfg, sh), maxRetries: cfg.MaxRetries,
		notify: onDone,
		obs:    sh,
	}
	port.SetHandler(send.onDatagram)
	rt.Post(send.pump)
	return &SRSender{s: send}, nil
}

// Done reports whether the sender has finished (successfully or not).
func (s *SRSender) Done() bool { return s.s.done }

// Err returns the sender's first internal error.
func (s *SRSender) Err() error {
	if s.s.err != nil {
		return fmt.Errorf("arq sr: sender: %w", s.s.err)
	}
	return nil
}

// Result snapshots the sender's outcome (Delivered is nil; see
// GBNSender.Result).
func (s *SRSender) Result() *SRResult {
	return &SRResult{
		OK:          s.s.ok,
		PacketsSent: s.s.sent,
		Retransmits: s.s.retrans,
		Duration:    s.s.finishedAt,
	}
}

// SRReceiver is the receiver half of a selective-repeat flow attached on
// its own. Like GBNReceiver it installs no handler and copies what it
// keeps. cfg.Window must match the sender's window for wrap safety.
type SRReceiver struct{ r *srReceiver }

// NewSRReceiver builds a selective-repeat receiver that acks to peer
// over port.
func NewSRReceiver(port netsim.Port, peer netsim.Addr, cfg FlowConfig) (*SRReceiver, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	return &SRReceiver{r: &srReceiver{
		ep: port, peer: peer, codec: codec,
		window: cfg.Window, buffer: make(map[int][]byte), clone: true,
	}}, nil
}

// OnDatagram feeds one received datagram to the receiver.
func (r *SRReceiver) OnDatagram(from netsim.Addr, data []byte) { r.r.onDatagram(from, data) }

// Expect returns the receiver's resumable progress: the absolute index
// of the next in-order payload. Buffered out-of-order packets are not
// part of the resumable state — after a crash their acks are lost with
// them and the sender's per-packet timers retransmit (DESIGN.md §14).
func (r *SRReceiver) Expect() uint64 { return uint64(r.r.expect) }

// SeedExpect restores progress recorded by Expect on a fresh receiver.
// Call before any datagram is delivered.
func (r *SRReceiver) SeedExpect(expect uint64) { r.r.expect = int(expect) }

// Delivered returns the in-order payloads accepted so far. Under rtnet,
// call from the owning shard loop (Node.Do).
func (r *SRReceiver) Delivered() [][]byte { return r.r.delivered }
