package arq

import (
	"fmt"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// sendMeta is per-window-slot transmit metadata for RTT sampling: when
// the slot's packet first went out, and whether it was ever
// retransmitted. Karn's rule: an ack for a retransmitted packet gives
// no valid RTT sample (the ack could answer either copy), so only
// never-retransmitted packets are observed.
type sendMeta struct {
	at   time.Duration
	retx bool
}

// This file implements the go-back-N extension of the paper's
// stop-and-wait protocol: a sliding window of up to W unacknowledged
// packets with cumulative acknowledgements. It is the natural "richer
// protocol built from the same library pieces" the paper's §1.1 asks for
// (building new protocols "quickly and easily" from reusable parts): the
// wire messages are unchanged, and the windowed sender demonstrates why
// stop-and-wait throughput collapses on long-delay links — the
// DESIGN.md §6 window ablation.
//
// Window size must satisfy W < 256 (the 8-bit sequence space) and in
// fact W <= 127 so the receiver can distinguish old from new packets
// after wrap.

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

// FlowConfig parameterises one windowed ARQ flow attached to existing
// simulator ports (the shared subset of GBNConfig/SRConfig — the link and
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

// GBNResult reports a go-back-N transfer.
type GBNResult struct {
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
func (r *GBNResult) Goodput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	var bytes int
	for _, p := range r.Delivered {
		bytes += len(p)
	}
	return float64(bytes) / r.Duration.Seconds()
}

// gbnSender slides a window of in-flight packets.
type gbnSender struct {
	rt    netsim.Runtime
	ep    netsim.Port
	peer  netsim.Addr
	codec *Codec

	payloads [][]byte
	base     int // oldest unacked payload index
	next     int // next payload index to send
	window   int

	timer      netsim.Timer
	rto        rtoState
	maxRetries int
	retries    int

	obs  *obs.Shard // runtime's stats block (discard when it has none)
	meta []sendMeta // per-window-slot transmit times, indexed idx%window

	encBuf     []byte // reusable AppendEncodePacket buffer
	sent       int
	retrans    int
	done       bool
	ok         bool
	finishedAt time.Duration
	err        error
	notify     func() // optional completion hook, runs inside the event loop
}

func (s *gbnSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *gbnSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done, s.ok = true, ok
	s.finishedAt = s.rt.Now()
	if s.timer != nil {
		s.timer.Cancel()
	}
	if s.notify != nil {
		s.notify()
	}
}

// pump fills the window.
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

func (s *gbnSender) transmit(idx int, isRetrans bool) error {
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
		s.meta[idx%s.window].retx = true
	} else {
		s.meta[idx%s.window] = sendMeta{at: s.rt.Now()}
	}
	return nil
}

func (s *gbnSender) armTimer() {
	if s.timer != nil {
		s.timer.Cancel()
	}
	if s.base < len(s.payloads) {
		s.timer = s.rt.After(s.rto.current(), s.onTimeout)
	}
}

func (s *gbnSender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	ack, err := s.codec.DecodeAckInPlace(data)
	if err != nil {
		return // corrupted ack: the timer recovers
	}
	// Cumulative ack: seq acknowledges every packet up to and including
	// that sequence number. Map the 8-bit seq back into the window.
	ackSeq := ack.Value().Seq
	for i := s.base; i < s.next; i++ {
		if uint8(i%256) == ackSeq {
			// Karn-filtered RTT samples for every packet this cumulative
			// ack newly covers.
			now := s.rt.Now()
			for j := s.base; j <= i; j++ {
				if m := &s.meta[j%s.window]; !m.retx {
					rtt := now - m.at
					s.obs.RTT().Observe(rtt)
					s.rto.sample(rtt)
				}
			}
			s.base = i + 1
			s.retries = 0
			// Forward progress clears backoff even when every covered
			// packet was a Karn-suppressed retransmission.
			s.rto.progress()
			s.pump()
			return
		}
	}
	// Ack outside the window: stale duplicate; ignore.
}

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
	s.rto.backoff()
	// Go back N: retransmit the whole window.
	for i := s.base; i < s.next; i++ {
		if err := s.transmit(i, true); err != nil {
			s.fail(err)
			return
		}
	}
	s.armTimer()
}

// gbnReceiver accepts in-order packets only and cumulatively acks the
// last in-order sequence number.
type gbnReceiver struct {
	ep        netsim.Port
	peer      netsim.Addr
	codec     *Codec
	expect    int
	encBuf    []byte // reusable AppendEncodeAck buffer
	delivered [][]byte
	clone     bool // copy accepted payloads (real-socket delivery buffers are recycled)
	err       error
}

func (r *gbnReceiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	// In-place decode: the accepted payload aliases this delivery's
	// buffer, which the handler owns from here on. Under rtnet the
	// delivery buffer is recycled after the handler returns, so clone
	// receivers copy what they keep.
	pkt, err := r.codec.DecodePacketInPlace(data)
	if err != nil {
		return // unverified packets are never processed
	}
	if pkt.Value().Seq == uint8(r.expect%256) {
		p := pkt.Value().Payload
		if r.clone {
			p = append([]byte(nil), p...)
		}
		r.delivered = append(r.delivered, p)
		r.expect++
	}
	// Cumulative ack for the last in-order packet (none yet -> none).
	if r.expect == 0 {
		return
	}
	enc, err := r.codec.AppendEncodeAck(r.encBuf[:0], uint8((r.expect-1)%256))
	if err != nil {
		r.err = err
		return
	}
	r.encBuf = enc[:0]
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = err
	}
}

// GBNFlow is a go-back-N sender/receiver pair attached to caller-owned
// ports (see StartGBN). Inspect it after the simulator goes idle.
type GBNFlow struct {
	send *gbnSender
	recv *gbnReceiver
}

// Done reports whether the sender has finished (successfully or not).
func (f *GBNFlow) Done() bool { return f.send.done }

// Err returns the first internal error of either side.
func (f *GBNFlow) Err() error {
	if f.send.err != nil {
		return fmt.Errorf("arq gbn: sender: %w", f.send.err)
	}
	if f.recv.err != nil {
		return fmt.Errorf("arq gbn: receiver: %w", f.recv.err)
	}
	return nil
}

// Result snapshots the flow's outcome. Duration is the virtual time at
// which the sender finished — for a lone flow in a clean simulator that
// is the delivery time of the final ack.
func (f *GBNFlow) Result() *GBNResult {
	return &GBNResult{
		OK:          f.send.ok,
		Delivered:   f.recv.delivered,
		PacketsSent: f.send.sent,
		Retransmits: f.send.retrans,
		Duration:    f.send.finishedAt,
	}
}

// StartGBN attaches a go-back-N flow to two existing *simulator* ports
// — endpoints or mux flow ports, whose delivery buffers are
// handler-owned — and schedules its first window on rt. Many flows can
// share one runtime (and one bottleneck link, via netsim.Mux); the
// caller runs the runtime's event loop. For real-network (rtnet) flows,
// whose delivery buffers are recycled, attach the halves instead:
// AttachGBNSender on the sending node, NewGBNReceiver (which copies
// what it keeps) on the receiving one.
func StartGBN(rt netsim.Runtime, sport, rport netsim.Port, cfg FlowConfig, payloads [][]byte) (*GBNFlow, error) {
	recv, err := NewGBNReceiver(rport, sport.Addr())
	if err != nil {
		return nil, err
	}
	recv.r.clone = false // in-process delivery buffers are handler-owned
	rport.SetHandler(recv.OnDatagram)
	send, err := AttachGBNSender(rt, sport, rport.Addr(), cfg, payloads, nil)
	if err != nil {
		return nil, err
	}
	return &GBNFlow{send: send.s, recv: recv.r}, nil
}

// GBNSender is the sender half of a go-back-N flow attached on its own —
// the real-network deployment shape, where the receiver half lives in
// another process (see internal/rtnet and cmd/protoserve).
type GBNSender struct{ s *gbnSender }

// AttachGBNSender attaches a go-back-N sender to port, talking to peer,
// and schedules its first window on rt. The port's handler is taken over
// (acks arrive there). onDone, if non-nil, runs inside the event loop
// when the transfer finishes (successfully or not); rtnet callers use it
// to signal a waiting goroutine.
func AttachGBNSender(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg FlowConfig, payloads [][]byte, onDone func()) (*GBNSender, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	// One codec per endpoint: the Append/InPlace scratch state makes a
	// Codec single-owner (see Codec docs).
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	sh := obs.Of(rt)
	send := &gbnSender{
		rt: rt, ep: port, peer: peer, codec: codec,
		payloads: payloads, window: cfg.Window,
		rto: newRTOState(&cfg, sh), maxRetries: cfg.MaxRetries,
		notify: onDone,
		obs:    sh,
		meta:   make([]sendMeta, cfg.Window),
	}
	port.SetHandler(send.onDatagram)
	rt.Post(send.pump)
	return &GBNSender{s: send}, nil
}

// Done reports whether the sender has finished (successfully or not).
func (s *GBNSender) Done() bool { return s.s.done }

// Err returns the sender's first internal error.
func (s *GBNSender) Err() error {
	if s.s.err != nil {
		return fmt.Errorf("arq gbn: sender: %w", s.s.err)
	}
	return nil
}

// Result snapshots the sender's outcome. Delivered is nil — only the
// receiving side knows what arrived. Call only after Done (under rtnet:
// from the owning shard loop, or after the onDone signal).
func (s *GBNSender) Result() *GBNResult {
	return &GBNResult{
		OK:          s.s.ok,
		PacketsSent: s.s.sent,
		Retransmits: s.s.retrans,
		Duration:    s.s.finishedAt,
	}
}

// GBNReceiver is the receiver half of a go-back-N flow attached on its
// own. It installs no handler: the caller routes datagrams to OnDatagram
// (rtnet's acceptor demultiplexes one flow port across many peers).
// Accepted payloads are copied, because real-socket delivery buffers are
// recycled after the handler returns.
type GBNReceiver struct{ r *gbnReceiver }

// NewGBNReceiver builds a go-back-N receiver that acks to peer over port.
func NewGBNReceiver(port netsim.Port, peer netsim.Addr) (*GBNReceiver, error) {
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	return &GBNReceiver{r: &gbnReceiver{ep: port, peer: peer, codec: codec, clone: true}}, nil
}

// OnDatagram feeds one received datagram to the receiver.
func (r *GBNReceiver) OnDatagram(from netsim.Addr, data []byte) { r.r.onDatagram(from, data) }

// Expect returns the receiver's resumable progress: the absolute index
// of the next in-order payload (everything below it has been delivered
// and cumulatively acked). This is the state a session snapshot
// persists so a restarted server resumes at the correct seq instead of
// seq 0 (DESIGN.md §14).
func (r *GBNReceiver) Expect() uint64 { return uint64(r.r.expect) }

// SeedExpect restores progress recorded by Expect on a fresh receiver.
// Call before any datagram is delivered: already-delivered payloads are
// not replayed (the previous incarnation consumed them), the receiver
// simply re-acks from the seeded position on.
func (r *GBNReceiver) SeedExpect(expect uint64) { r.r.expect = int(expect) }

// Delivered returns the in-order payloads accepted so far. Under rtnet,
// call from the owning shard loop (Node.Do).
func (r *GBNReceiver) Delivered() [][]byte { return r.r.delivered }

// RunTransferGBN runs a go-back-N transfer. Window 0 selects 8.
func RunTransferGBN(cfg GBNConfig, payloads [][]byte) (*GBNResult, error) {
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
