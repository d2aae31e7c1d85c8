package arq

import (
	"fmt"
	"time"

	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// This file is the windowed ARQ engine that go-back-N (gobackn.go) and
// selective repeat (selectiverepeat.go) share: the second and third
// rungs of the stop-and-wait -> go-back-N -> selective-repeat ladder the
// paper's §1.1 asks the language pieces to climb "quickly and easily"
// (DESIGN.md §6). Both ride the same wire messages, the same sender and
// receiver state, the same encode-send-count step and the same RFC 6298
// estimator. A variant supplies only its rules: how an ack moves the
// window, what a timeout retransmits, how its timers are armed, and
// which packets its receiver accepts and acks.
//
// The 8-bit sequence space caps the window at 127 (< 256/2), which keeps
// old and new sequence numbers distinguishable after wrap on both sides.

// FlowConfig parameterises one windowed ARQ flow attached to existing
// simulator ports (the shared subset of GBNConfig — the link and
// simulator are the caller's).
type FlowConfig struct {
	// Window is the sender window (1..127; the 8-bit sequence space caps
	// it). Zero selects 8.
	Window int
	// RTO is the retransmission timeout. Zero selects 50 ms.
	RTO time.Duration
	// MaxRetries bounds retransmission rounds (go-back-N) or per-packet
	// retransmissions (selective repeat). Zero selects 10.
	MaxRetries int
	// Adaptive enables the RFC-6298 timeout estimator (internal/arq/rto.go,
	// DESIGN.md §13): SRTT/RTTVAR from the Karn-filtered RTT samples,
	// exponential backoff on timeout, reset on forward progress. RTO then
	// serves only as the initial timeout until the first sample. Off, the
	// configured RTO is a fixed timer — the original engine behaviour,
	// which the golden traces pin.
	Adaptive bool
	// MinRTO and MaxRTO clamp the adaptive timeout (zero selects 5ms and
	// 10s). Ignored in fixed mode.
	MinRTO time.Duration
	MaxRTO time.Duration
}

func (c *FlowConfig) applyDefaults() error {
	if c.RTO == 0 {
		c.RTO = 50 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.Window < 1 || c.Window > 127 {
		return fmt.Errorf("arq: window %d outside 1..127 (8-bit sequence space)", c.Window)
	}
	if c.Adaptive {
		if c.MinRTO == 0 {
			c.MinRTO = defaultMinRTO
		}
		if c.MaxRTO == 0 {
			c.MaxRTO = defaultMaxRTO
		}
		if c.MinRTO <= 0 || c.MaxRTO < c.MinRTO {
			return fmt.Errorf("arq: adaptive rto bounds [%s, %s] invalid", c.MinRTO, c.MaxRTO)
		}
	}
	return nil
}

// WindowResult reports a windowed transfer.
type WindowResult struct {
	OK          bool
	Delivered   [][]byte
	PacketsSent int
	Retransmits int
	Duration    time.Duration
	// Obs is the simulator's observability snapshot (counters, RTT
	// histogram), taken at transfer end. Nil outside RunTransferGBN.
	Obs *obs.Snapshot
}

// Goodput returns delivered payload bytes per virtual second.
func (r *WindowResult) Goodput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	var bytes int
	for _, p := range r.Delivered {
		bytes += len(p)
	}
	return float64(bytes) / r.Duration.Seconds()
}

// sendSlot is the sender's bookkeeping for one in-flight packet, held
// in a ring of window slots indexed by payload index mod window.
type sendSlot struct {
	idx     int           // the payload index the slot holds
	at      time.Duration // first transmit, for RTT samples
	retries int           // retransmissions; Karn's rule samples only at 0
	acked   bool          // individually acknowledged (selective repeat)
	timer   netsim.Timer  // the slot's timer (selective repeat), re-armed per packet
}

// WindowSender is the sender half of a windowed flow: the state both
// variants keep and the steps they share. A variant embeds it and adds
// its ack handler, its timeout handler and its timer discipline.
type WindowSender struct {
	rt    netsim.Runtime
	ep    netsim.Port
	peer  netsim.Addr
	codec *Codec
	obs   *obs.Shard // runtime's stats block (discard when it has none)

	payloads [][]byte
	base     int // oldest unacked payload index
	next     int // next payload index to send
	window   int
	slots    []sendSlot
	// timer is go-back-N's one window timer; selective repeat arms
	// slots[k].timer instead. finish cancels both kinds, and a variant
	// leaves the kind it does not use nil.
	timer netsim.Timer

	rto        RTO
	maxRetries int

	encBuf     []byte // reusable AppendEncodePacket buffer
	sent       int
	retrans    int
	done       bool
	ok         bool
	finishedAt time.Duration
	err        error
	notify     func() // optional completion hook, runs inside the event loop
}

// init validates cfg and builds the shared sender state.
func (s *WindowSender) init(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) error {
	if err := cfg.applyDefaults(); err != nil {
		return err
	}
	codec, err := NewCodec()
	if err != nil {
		return err
	}
	sh := obs.Of(rt)
	*s = WindowSender{
		rt: rt, ep: port, peer: peer, codec: codec, obs: sh,
		payloads: payloads, window: cfg.Window, slots: make([]sendSlot, cfg.Window),
		rto: newRTO(&cfg, sh), maxRetries: cfg.MaxRetries,
		notify: onDone,
	}
	return nil
}

func (s *WindowSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *WindowSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done, s.ok = true, ok
	s.finishedAt = s.rt.Now()
	if s.timer != nil {
		s.timer.Cancel()
	}
	for i := range s.slots {
		if t := s.slots[i].timer; t != nil {
			t.Cancel()
		}
	}
	if s.notify != nil {
		s.notify()
	}
}

// transmit encodes, sends and counts payload idx, and records its slot:
// a first transmission restarts the slot, a retransmission marks it.
func (s *WindowSender) transmit(idx int, retx bool) error {
	enc, err := s.codec.AppendEncodePacket(s.encBuf[:0], uint8(idx%256), s.payloads[idx])
	if err != nil {
		return err
	}
	s.encBuf = enc[:0]
	if err := s.ep.Send(s.peer, enc); err != nil {
		return err
	}
	s.sent++
	slot := &s.slots[idx%s.window]
	if retx {
		s.retrans++
		s.obs.Inc(obs.Retransmits)
		slot.retries++
	} else {
		*slot = sendSlot{idx: idx, at: s.rt.Now(), timer: slot.timer}
	}
	return nil
}

// ackSeq decodes an ack. It reports false once the transfer is done and
// for a corrupted ack, which the timers recover from.
func (s *WindowSender) ackSeq(data []byte) (uint8, bool) {
	if s.done {
		return 0, false
	}
	ack, err := s.codec.DecodeAckInPlace(data)
	if err != nil {
		return 0, false
	}
	return ack.Value().Seq, true
}

// rtoAck feeds the estimator one newly acknowledged packet. Karn's
// rule: an ack of a retransmitted packet could answer either copy, so
// only a packet sent once yields an RTT sample.
func (s *WindowSender) rtoAck(slot *sendSlot, now time.Duration) {
	rtt, clean := now-slot.at, slot.retries == 0
	if clean {
		s.obs.RTT().Observe(rtt)
	}
	s.rto.Ack(rtt, clean)
}

// Err returns the sender's first internal error.
func (s *WindowSender) Err() error {
	if s.err != nil {
		return fmt.Errorf("arq: sender: %w", s.err)
	}
	return nil
}

// Result snapshots the sender's outcome. Delivered is nil — only the
// receiving side knows what arrived. Call only once the sender has
// finished (under rtnet: from the owning shard loop, or after the onDone
// signal).
func (s *WindowSender) Result() *WindowResult {
	return &WindowResult{
		OK:          s.ok,
		PacketsSent: s.sent,
		Retransmits: s.retrans,
		Duration:    s.finishedAt,
	}
}

// receiveRule is a variant's acceptance rule. Given a verified packet,
// it delivers what the packet makes in-order (through keep) and names
// the sequence number to ack; ok false sends no ack.
type receiveRule interface {
	accept(r *WindowReceiver, seq uint8, payload []byte) (ack uint8, ok bool)
}

// WindowReceiver is the receiver half of a windowed flow. It installs no
// handler: the caller routes datagrams to OnDatagram (rtnet's acceptor
// demultiplexes one flow port across many peers). Accepted payloads are
// copied, because real-socket delivery buffers are recycled after the
// handler returns; StartGBN and StartSR turn the copy off for the
// simulator, whose delivery buffers are handler-owned.
type WindowReceiver struct {
	ep        netsim.Port
	peer      netsim.Addr
	codec     *Codec
	rule      receiveRule
	expect    int    // next in-order payload index to deliver
	encBuf    []byte // reusable AppendEncodeAck buffer
	delivered [][]byte
	clone     bool  // copy what is kept (real-socket delivery buffers are recycled)
	err       error // why the receiver stopped; nil while it runs
}

func newWindowReceiver(port netsim.Port, peer netsim.Addr, rule receiveRule) (*WindowReceiver, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	return &WindowReceiver{ep: port, peer: peer, codec: codec, rule: rule, clone: true}, nil
}

// OnDatagram feeds one received datagram to the receiver. A receiver
// whose ack could not be encoded or sent has stopped (see Err) and drops
// every datagram.
func (r *WindowReceiver) OnDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	// In-place decode: the accepted payload aliases this delivery's
	// buffer, which the handler owns from here on.
	pkt, err := r.codec.DecodePacketInPlace(data)
	if err != nil {
		return // unverified packets are never processed
	}
	v := pkt.Value()
	seq, ok := r.rule.accept(r, v.Seq, v.Payload)
	if !ok {
		return
	}
	enc, err := r.codec.AppendEncodeAck(r.encBuf[:0], seq)
	if err != nil {
		r.err = fmt.Errorf("arq: receiver: encode ack: %w", err)
		return
	}
	r.encBuf = enc[:0]
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = fmt.Errorf("arq: receiver: send ack: %w", err)
	}
}

// keep returns the payload to hold past the handler: a copy when the
// delivery buffer is recycled.
func (r *WindowReceiver) keep(p []byte) []byte {
	if r.clone {
		return append([]byte(nil), p...)
	}
	return p
}

// Err returns why the receiver stopped — the ack encode or send that
// failed — or nil while it runs.
func (r *WindowReceiver) Err() error { return r.err }

// Expect returns the receiver's resumable progress: the absolute index
// of the next in-order payload (everything below it has been delivered
// and acked). This is the state a session snapshot persists so a
// restarted server resumes at the correct seq instead of seq 0
// (DESIGN.md §14). Selective repeat's buffered out-of-order packets are
// not part of it: after a crash their acks are lost with them and the
// sender's per-packet timers retransmit.
func (r *WindowReceiver) Expect() uint64 { return uint64(r.expect) }

// SeedExpect restores progress recorded by Expect on a fresh receiver.
// Call before any datagram is delivered: already-delivered payloads are
// not replayed (the previous incarnation consumed them), the receiver
// simply re-acks from the seeded position on.
func (r *WindowReceiver) SeedExpect(expect uint64) { r.expect = int(expect) }

// Delivered returns the in-order payloads accepted so far. Under rtnet,
// call from the owning shard loop (Node.Do).
func (r *WindowReceiver) Delivered() [][]byte { return r.delivered }

// WindowFlow is a sender/receiver pair attached to caller-owned
// simulator ports (see StartGBN, StartSR). Inspect it after the
// simulator goes idle.
type WindowFlow struct {
	send *WindowSender
	recv *WindowReceiver
}

// startFlow wires recv to rport (delivery buffers there are
// handler-owned, so nothing is copied) and attaches the sender on sport.
func startFlow(rt netsim.Runtime, sport, rport netsim.Port, recv *WindowReceiver, attach func(netsim.Runtime, netsim.Port, netsim.Addr, FlowConfig, [][]byte, func()) (*WindowSender, error), cfg FlowConfig, payloads [][]byte) (*WindowFlow, error) {
	recv.clone = false
	rport.SetHandler(recv.OnDatagram)
	send, err := attach(rt, sport, rport.Addr(), cfg, payloads, nil)
	if err != nil {
		return nil, err
	}
	return &WindowFlow{send: send, recv: recv}, nil
}

// Done reports whether the sender has finished (successfully or not).
func (f *WindowFlow) Done() bool { return f.send.done }

// Err returns the first internal error of either side.
func (f *WindowFlow) Err() error {
	if err := f.send.Err(); err != nil {
		return err
	}
	return f.recv.err
}

// Result snapshots the flow's outcome. Duration is the virtual time at
// which the sender finished — for a lone flow in a clean simulator that
// is the delivery time of the final ack.
func (f *WindowFlow) Result() *WindowResult {
	res := f.send.Result()
	res.Delivered = f.recv.delivered
	return res
}
