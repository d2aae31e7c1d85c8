// Client is the active opener: Closed -> SynSent -> Established ->
// FinWait -> TimeWait -> Down, exactly the Client machine from
// handshake.pdsl, with the engine supplying what the spec
// abstracts away — real timers (SYN retransmits on the RFC 6298
// estimator, heartbeat ticks, TIME_WAIT expiry), the shared-flow
// control/data split, and the obs counters.

package session

import (
	"errors"
	"fmt"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// Terminal errors reported through OnDown.
var (
	// ErrConnectTimeout: the SYN retransmit budget ran out in SynSent.
	ErrConnectTimeout = errors.New("session: connect timed out")
	// ErrPeerDown: K consecutive heartbeat intervals passed without a
	// BEAT-ACK (or the FIN retransmit budget ran out during close).
	ErrPeerDown = errors.New("session: peer down")
)

// ClientConfig parameterises a connector. The zero value of every field
// selects a sane default; callbacks may be nil.
type ClientConfig struct {
	// Nonce is the client's handshake nonce (echoed by the server and
	// bound into the cookie MAC). Callers wanting replay spread should
	// pick it randomly; 0 is valid.
	Nonce uint32

	// RTO seeds the SYN/ACK-C/FIN retransmit estimator; Adaptive/MinRTO/
	// MaxRTO have their arq.FlowConfig meanings (DESIGN.md §13).
	RTO      time.Duration
	Adaptive bool
	MinRTO   time.Duration
	MaxRTO   time.Duration
	// MaxRetries bounds SYN (and ACK-C, and FIN) retransmissions;
	// default 10.
	MaxRetries int

	// HeartbeatEvery is the BEAT interval once established; 0 disables
	// heartbeats (liveness then rides data traffic alone).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is K: intervals without a BEAT-ACK before the
	// peer is declared down; default 3.
	HeartbeatMisses int
	// TimeWait is how long the TIME_WAIT state absorbs stale control
	// frames before reaching Down; default 1s.
	TimeWait time.Duration

	// OnEstablished fires when the cookie round-trip completes — the
	// place to attach an ARQ sender to DataPort().
	OnEstablished func()
	// OnPeerDown fires when liveness fails in Established.
	OnPeerDown func()
	// OnDown fires once when the machine reaches Down (or the connect
	// gives up in SynSent); err is nil after a clean close.
	OnDown func(err error)
}

func (c *ClientConfig) applyDefaults() {
	if c.MaxRetries == 0 {
		c.MaxRetries = 10
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = 3
	}
	if c.TimeWait == 0 {
		c.TimeWait = time.Second
	}
}

// Client drives one connection's lifecycle over a flow port. It is
// single-goroutine: every entry point (the port handler, timers, and
// the Connect/Close calls) must run on the owning loop.
type Client struct {
	rt    netsim.Runtime
	port  netsim.Port
	peer  netsim.Addr
	cfg   ClientConfig
	m     *fsm.Machine
	codec *Codec
	rto   *arq.RTO
	sh    *obs.Shard

	evConnect, evRetry, evGiveup fsm.EventID
	evSynack, evTick             fsm.EventID
	evClose, evReclose, evFinack fsm.EventID
	evPeerDown, evExpire         fsm.EventID
	synAckShape                  *expr.MsgShape

	dataH func(from netsim.Addr, data []byte)
	buf   []byte

	retryT  netsim.Timer
	beatT   netsim.Timer
	expireT netsim.Timer
	tickFn  func() // pre-bound onTick, so re-arming never closes over c

	synSentAt time.Duration
	retries   int
	misses    int
	awaiting  bool // a BEAT went out with no BEAT-ACK (or data) back yet
	confirmed bool // server demonstrably holds our session (ack or beat seen)
	nonce     uint32
	cookie    uint32
	beatsSent uint64
	done      bool
	err       error
}

const (
	stateSynSent     = "SynSent"
	stateEstablished = "Established"
	stateFinWait     = "FinWait"
	stateTimeWait    = "TimeWait"
)

// Connect builds a client on port, installs its receive handler, and
// fires the first SYN at peer. Must run on the loop that owns port.
func Connect(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, cfg ClientConfig) (*Client, error) {
	p, err := compiled()
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	rto, err := arq.NewRTO(arq.FlowConfig{
		RTO: cfg.RTO, Adaptive: cfg.Adaptive,
		MinRTO: cfg.MinRTO, MaxRTO: cfg.MaxRTO,
	}, obs.Of(rt))
	if err != nil {
		return nil, fmt.Errorf("session: connect: %w", err)
	}
	c := &Client{
		rt: rt, port: port, peer: peer, cfg: cfg,
		m: p.clientProg.NewMachine(), codec: codec, rto: rto,
		sh: obs.Of(rt), nonce: cfg.Nonce,
	}
	if err := c.resolveEvents(); err != nil {
		return nil, err
	}
	c.synAckShape = c.m.Program().MsgShape("SynAck")
	c.tickFn = c.onTick
	port.SetHandler(c.onFrame)

	c.synSentAt = rt.Now()
	c.step(c.evConnect, expr.U32(uint64(c.nonce)))
	c.retryT = rt.After(c.rto.Current(), c.onRetry)
	return c, nil
}

func (c *Client) resolveEvents() error {
	for _, e := range []struct {
		name string
		id   *fsm.EventID
	}{
		{"CONNECT", &c.evConnect}, {"RETRY", &c.evRetry}, {"GIVEUP", &c.evGiveup},
		{"SYNACK", &c.evSynack}, {"TICK", &c.evTick},
		{"CLOSE", &c.evClose}, {"RECLOSE", &c.evReclose}, {"FINACK", &c.evFinack},
		{"PEER_DOWN", &c.evPeerDown}, {"EXPIRE", &c.evExpire},
	} {
		id, ok := c.m.EventID(e.name)
		if !ok {
			return fmt.Errorf("session: client machine lacks event %s", e.name)
		}
		*e.id = id
	}
	return nil
}

// step drives the machine and transmits every output frame. Machine
// errors are impossible for well-typed stimuli from this engine, so
// they stop the process loudly rather than being half-handled.
func (c *Client) step(ev fsm.EventID, args ...expr.Value) fsm.FrameResult {
	res, err := c.m.StepEv(ev, args...)
	if err != nil {
		panic(fmt.Sprintf("session: client step: %v", err))
	}
	for i := range res.Outputs {
		out := &res.Outputs[i]
		k, ok := messageKinds[out.Message]
		if !ok {
			panic("session: client machine emitted unknown message " + out.Message)
		}
		c.buf = appendOutput(c.buf[:0], c.codec, k, out.Frame)
		_ = c.port.Send(c.peer, c.buf)
	}
	return res
}

// DataPort returns the port an ARQ engine should attach to: sends pass
// straight through to the flow port, while the installed handler
// becomes the client's data path (control frames are already peeled
// off). Attach from OnEstablished.
func (c *Client) DataPort() netsim.Port { return dataPort{c} }

type dataPort struct{ c *Client }

func (d dataPort) Addr() netsim.Addr                       { return d.c.port.Addr() }
func (d dataPort) Send(to netsim.Addr, data []byte) error  { return d.c.port.Send(to, data) }
func (d dataPort) SetHandler(fn func(netsim.Addr, []byte)) { d.c.dataH = fn }

// ObsShard lets obs.Of discover the underlying port's stats block
// through the wrapper.
func (d dataPort) ObsShard() *obs.Shard {
	if src, ok := d.c.port.(obs.Source); ok {
		return src.ObsShard()
	}
	return nil
}

// State returns the lifecycle machine's current state name.
func (c *Client) State() string { return c.m.State() }

// Done reports whether the lifecycle has terminated (Down reached or
// the connect abandoned).
func (c *Client) Done() bool { return c.done }

// Err returns the terminal error (nil while running or after a clean
// close).
func (c *Client) Err() error { return c.err }

// BeatsSent returns how many heartbeats have been transmitted.
func (c *Client) BeatsSent() uint64 { return c.beatsSent }

// onFrame is the flow port's receive handler: control frames drive the
// lifecycle machine, everything else is the ARQ engine's data.
func (c *Client) onFrame(from netsim.Addr, data []byte) {
	if from != c.peer || c.done {
		c.sh.Inc(obs.DropNoSession)
		return
	}
	switch k := c.codec.Classify(data); k {
	case 0:
		if c.m.State() == stateTimeWait {
			c.sh.Inc(obs.TimewaitAbsorbed)
			return
		}
		if c.dataH == nil {
			c.sh.Inc(obs.DropNoSession)
			return
		}
		// Data from the server (ARQ acks) proves our ACK-C landed.
		c.confirm()
		c.awaiting = false
		c.dataH(from, data)
	case KindSynAck:
		c.onSynAck()
	case KindBeatAck:
		if c.m.State() == stateEstablished {
			c.misses, c.awaiting = 0, false
			c.confirm()
		} else if c.m.State() == stateTimeWait {
			c.sh.Inc(obs.TimewaitAbsorbed)
		}
	case KindFinAck:
		res := c.step(c.evFinack)
		if res.Fired != nil { // FinWait -> TimeWait
			c.cancelTimers()
			c.expireT = c.rt.After(c.cfg.TimeWait, c.onExpire)
		} else if c.m.State() == stateTimeWait {
			c.sh.Inc(obs.TimewaitAbsorbed)
		}
	default:
		// SYN/ACK-C/BEAT/FIN are server-bound stimuli; a client
		// receiving one is seeing hostile or misrouted traffic.
		if c.m.State() == stateTimeWait {
			c.sh.Inc(obs.TimewaitAbsorbed)
		} else {
			c.sh.Inc(obs.DropNoSession)
		}
	}
}

func (c *Client) onSynAck() {
	res := c.step(c.evSynack, expr.FrameMsg(c.synAckShape, c.codec.Frame(KindSynAck)))
	switch {
	case res.Fired != nil: // SynSent -> Established; ACK-C already sent by step
		c.cookie = c.codec.SynAckCookie()
		if c.retryT != nil {
			c.retryT.Cancel()
		}
		if c.retries == 0 {
			c.rto.Sample(c.rt.Now() - c.synSentAt)
		} else {
			c.rto.Progress()
		}
		c.retries = 0
		c.sh.Inc(obs.HandshakesOK)
		// The ACK-C went out with the transition. Until the server
		// shows it holds the session, re-send it on the RTO clock: it
		// drops every data frame from us until the ACK-C lands.
		c.retryT = c.rt.After(c.rto.Current(), c.onAckCRetry)
		if c.cfg.HeartbeatEvery > 0 {
			c.beatT = c.rt.After(c.cfg.HeartbeatEvery, c.tickFn)
		}
		if c.cfg.OnEstablished != nil {
			c.cfg.OnEstablished()
		}
	case c.m.State() == stateEstablished:
		// Duplicate SYN-ACK: the server kept reflecting because our
		// ACK-C was lost. Re-answer it — the ACK-C is idempotent.
		c.buf = c.codec.AppendAckC(c.buf[:0], c.codec.SynAckNonce(), c.codec.SynAckCookie())
		_ = c.port.Send(c.peer, c.buf)
	case c.m.State() == stateTimeWait:
		c.sh.Inc(obs.TimewaitAbsorbed)
	}
}

// onRetry is the SYN retransmit timer.
func (c *Client) onRetry() {
	if c.m.State() != stateSynSent || c.done {
		return
	}
	c.retries++
	if c.retries > c.cfg.MaxRetries {
		c.step(c.evGiveup)
		c.finish(ErrConnectTimeout)
		return
	}
	c.rto.Backoff()
	c.step(c.evRetry, expr.U32(uint64(c.nonce)))
	c.retryT = c.rt.After(c.rto.Current(), c.onRetry)
}

// onAckCRetry is the ACK-C retransmit timer: with backoff, bounded by
// MaxRetries, and silent once the session is confirmed. After the
// budget only the heartbeat tick re-answers the cookie.
func (c *Client) onAckCRetry() {
	if c.confirmed || c.m.State() != stateEstablished || c.done {
		return
	}
	c.retries++
	if c.retries > c.cfg.MaxRetries {
		return
	}
	c.rto.Backoff()
	c.sendAckC()
	c.retryT = c.rt.After(c.rto.Current(), c.onAckCRetry)
}

// confirm records that the server demonstrably holds our session and
// clears any backoff the ACK-C retries left on the estimator.
func (c *Client) confirm() {
	if c.confirmed {
		return
	}
	c.confirmed = true
	if c.retries > 0 {
		c.rto.Progress()
	}
}

// sendAckC re-answers the cookie (idempotent server-side).
func (c *Client) sendAckC() {
	c.buf = c.codec.AppendAckC(c.buf[:0], c.nonce, c.cookie)
	_ = c.port.Send(c.peer, c.buf)
}

// onTick is the heartbeat timer: miss accounting, then a BEAT through
// the machine. Steady-state cost is one StepEv, one encode and one
// send — no allocations.
func (c *Client) onTick() {
	if c.m.State() != stateEstablished || c.done {
		return
	}
	if c.awaiting {
		c.misses++
		if c.misses >= c.cfg.HeartbeatMisses {
			c.step(c.evPeerDown)
			c.sh.Inc(obs.PeerDown)
			if c.cfg.OnPeerDown != nil {
				c.cfg.OnPeerDown()
			}
			c.finish(ErrPeerDown)
			return
		}
	}
	c.beatsSent++
	c.step(c.evTick)
	if !c.confirmed {
		// No ack and no BEAT-ACK yet: keep re-answering the cookie in
		// case the ACK-C was lost.
		c.sendAckC()
	}
	c.awaiting = true
	c.beatT = c.rt.After(c.cfg.HeartbeatEvery, c.tickFn)
}

// Close starts (or, in SynSent, abandons) teardown: FIN with
// retransmits, then TIME_WAIT once the FIN-ACK lands.
func (c *Client) Close() {
	if c.done {
		return
	}
	switch c.m.State() {
	case stateSynSent:
		c.step(c.evGiveup)
		c.finish(nil)
	case stateEstablished:
		c.retryT.Cancel() // the ACK-C retry timer, if still armed
		c.retries = 0
		c.step(c.evClose)
		c.retryT = c.rt.After(c.rto.Current(), c.onReclose)
	}
}

// onReclose is the FIN retransmit timer.
func (c *Client) onReclose() {
	if c.m.State() != stateFinWait || c.done {
		return
	}
	c.retries++
	if c.retries > c.cfg.MaxRetries {
		c.step(c.evPeerDown) // FinWait -> Down ("abort")
		c.sh.Inc(obs.PeerDown)
		c.finish(ErrPeerDown)
		return
	}
	c.rto.Backoff()
	c.step(c.evReclose)
	c.retryT = c.rt.After(c.rto.Current(), c.onReclose)
}

// onExpire ends TIME_WAIT.
func (c *Client) onExpire() {
	if c.m.State() != stateTimeWait || c.done {
		return
	}
	c.step(c.evExpire)
	c.finish(nil)
}

func (c *Client) cancelTimers() {
	for _, t := range []netsim.Timer{c.retryT, c.beatT, c.expireT} {
		if t != nil {
			t.Cancel()
		}
	}
}

func (c *Client) finish(err error) {
	c.done, c.err = true, err
	c.cancelTimers()
	if c.cfg.OnDown != nil {
		c.cfg.OnDown(err)
	}
}
