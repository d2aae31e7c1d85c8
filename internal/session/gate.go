// Gate is the passive opener guarding one served flow: it classifies
// every received frame, reflects SYNs statelessly (cookie = keyed MAC,
// so nothing is allocated for a peer that never returns it), spawns a
// data engine plus a compiled Server lifecycle machine only when a
// valid-cookie ACK-C lands, answers heartbeats, reaps silent peers, and
// snapshot-logs progress so sessions survive a server restart.
//
// The spec's Listen state is represented by the absence of a peer
// entry: reflect and reject are stateless by construction, and the
// per-peer machine is born directly into the ACK-C step. The engine
// verifies its MAC cookie itself and presents the machine the spec's
// canonical cookie (nonce+1), mapping valid/invalid onto the spec's
// accept/reject guards — see DESIGN.md §14.

package session

import (
	"fmt"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// AcceptFunc builds the data engine for a freshly established (or
// resumed) peer. resume is nil for a clean handshake and carries the
// recovered receiver progress otherwise. Returning nil rejects the
// peer (no state is kept).
type AcceptFunc func(peer netsim.Addr, resume *Resume) *Engine

// GateConfig parameterises a flow gate. Zero values select defaults.
type GateConfig struct {
	// Accept is required: it spawns the per-peer data engine.
	Accept AcceptFunc
	// Secret keys the cookie MAC; nil mints a random per-gate key.
	// Gates of one node should share a secret (rtnet passes one).
	Secret []byte
	// HeartbeatEvery is the liveness sweep interval; default 1s.
	HeartbeatEvery time.Duration
	// HeartbeatMisses is K: sweep intervals without any frame from a
	// peer before it is declared down; default 3.
	HeartbeatMisses int
	// MaxPeers caps established peers on this flow; default 1024.
	MaxPeers int
	// Draining, when non-nil, suppresses new handshakes (SYN and
	// ACK-C) while true — rtnet wires its drain flag here.
	Draining func() bool
	// Store, when non-nil, receives state snapshots for crash
	// recovery.
	Store *Store
}

func (c *GateConfig) applyDefaults() error {
	if c.Accept == nil {
		return fmt.Errorf("session: gate needs an Accept callback")
	}
	if c.Secret == nil {
		c.Secret = randomSecret()
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = time.Second
	}
	if c.HeartbeatMisses == 0 {
		c.HeartbeatMisses = 3
	}
	if c.MaxPeers == 0 {
		c.MaxPeers = 1024
	}
	if c.Draining == nil {
		c.Draining = func() bool { return false }
	}
	return nil
}

// gatePeer is one established peer's state.
type gatePeer struct {
	m        *fsm.Machine
	eng      *Engine
	lastSeen time.Duration
	lastSnap uint64
}

// Gate guards one served flow. Single-goroutine: the owning shard loop
// runs the port handler and the sweep timer.
type Gate struct {
	rt    netsim.Runtime
	port  netsim.Port
	flow  byte
	cfg   GateConfig
	sh    *obs.Shard
	codec *Codec
	prog  *fsm.Program

	evAckc, evBeat, evFin   fsm.EventID
	evPeerDown, evDone      fsm.EventID
	ackcShape, beatShape    *expr.MsgShape
	canonAckc               *expr.Frame // synthesized spec-level ACK-C
	canonMagic, canonKind   int
	canonNonce, canonCookie int
	canonChk                int

	peers   map[netsim.Addr]*gatePeer
	parked  map[netsim.Addr]uint64 // reaped peers' progress, resumable on re-handshake
	victims []netsim.Addr          // sweep scratch

	buf     []byte
	mac     []byte
	snapBuf []byte
	sweepT  netsim.Timer
	sweepFn func()
}

// NewGate builds a gate over port and installs its receive handler.
// Must run on the loop that owns port.
func NewGate(rt netsim.Runtime, port netsim.Port, flow byte, cfg GateConfig) (*Gate, error) {
	p, err := compiled()
	if err != nil {
		return nil, err
	}
	codec, err := NewCodec()
	if err != nil {
		return nil, err
	}
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	g := &Gate{
		rt: rt, port: port, flow: flow, cfg: cfg,
		sh: obs.Of(rt), codec: codec, prog: p.serverProg,
		peers:  map[netsim.Addr]*gatePeer{},
		parked: map[netsim.Addr]uint64{},
	}
	for _, e := range []struct {
		name string
		id   *fsm.EventID
	}{
		{"ACKC", &g.evAckc}, {"BEAT", &g.evBeat}, {"FIN", &g.evFin},
		{"PEER_DOWN", &g.evPeerDown}, {"DONE", &g.evDone},
	} {
		id, ok := p.serverProg.EventID(e.name)
		if !ok {
			return nil, fmt.Errorf("session: server machine lacks event %s", e.name)
		}
		*e.id = id
	}
	g.ackcShape = p.serverProg.MsgShape("AckC")
	g.beatShape = p.serverProg.MsgShape("Beat")
	ackcProg := codec.by[KindAckC].prog
	g.canonAckc = ackcProg.NewFrame()
	g.canonMagic = mustSlot(ackcProg, "AckC", "magic")
	g.canonKind = mustSlot(ackcProg, "AckC", "kind")
	g.canonNonce = mustSlot(ackcProg, "AckC", "nonce")
	g.canonCookie = mustSlot(ackcProg, "AckC", "cookie")
	g.canonChk = mustSlot(ackcProg, "AckC", "chk")
	g.sweepFn = g.sweep
	port.SetHandler(g.OnFrame)
	return g, nil
}

// Peers returns the number of established peers.
func (g *Gate) Peers() int { return len(g.peers) }

func (g *Gate) cookie(peer netsim.Addr, nonce uint32) uint32 {
	c, scratch := cookie32(g.cfg.Secret, g.flow, peer, nonce, g.mac)
	g.mac = scratch
	return c
}

// OnFrame is the flow's receive handler.
func (g *Gate) OnFrame(from netsim.Addr, data []byte) {
	switch k := g.codec.Classify(data); k {
	case 0: // ARQ data — only established peers reach an engine
		pe := g.peers[from]
		if pe == nil {
			g.sh.Inc(obs.DropNoSession)
			return
		}
		pe.lastSeen = g.rt.Now()
		pe.eng.Handle(from, data)
		g.maybeSnap(from, pe)
	case KindSyn:
		if g.cfg.Draining() {
			g.sh.Inc(obs.DropDraining)
			return
		}
		// Stateless reflect: nothing is recorded for this peer until
		// it returns the cookie.
		nonce := g.codec.SynNonce()
		g.buf = g.codec.AppendSynAck(g.buf[:0], nonce, g.cookie(from, nonce))
		_ = g.port.Send(from, g.buf)
	case KindAckC:
		g.onAckC(from)
	case KindBeat:
		pe := g.peers[from]
		if pe == nil {
			g.sh.Inc(obs.DropNoSession)
			return
		}
		pe.lastSeen = g.rt.Now()
		res := g.step(pe.m, g.evBeat, expr.FrameMsg(g.beatShape, g.codec.Frame(KindBeat)))
		g.sendOutputs(from, res)
	case KindFin:
		g.onFin(from)
	default:
		// SYN-ACK / FIN-ACK / BEAT-ACK are client-bound: a server
		// receiving one is seeing hostile or reflected traffic.
		g.sh.Inc(obs.DropNoSession)
	}
}

// onAckC completes (or rejects) the cookie round-trip.
func (g *Gate) onAckC(from netsim.Addr) {
	if pe := g.peers[from]; pe != nil {
		// Duplicate ACK-C from an established peer (ours was acked by
		// data already, or the client is re-answering a reflected
		// SYN-ACK): idempotent.
		pe.lastSeen = g.rt.Now()
		return
	}
	nonce, got := g.codec.AckCNonce(), g.codec.AckCCookie()
	if got != g.cookie(from, nonce) {
		g.sh.Inc(obs.CookiesRejected)
		return
	}
	if g.cfg.Draining() {
		g.sh.Inc(obs.DropDraining)
		return
	}
	if len(g.peers) >= g.cfg.MaxPeers {
		g.sh.Inc(obs.DropPeerLimit)
		return
	}
	var resume *Resume
	if expect, ok := g.parked[from]; ok {
		resume = &Resume{Expect: expect}
	}
	eng := g.cfg.Accept(from, resume)
	if eng == nil {
		g.sh.Inc(obs.DropNoSession)
		return
	}
	// Drive the machine through the spec's accept guard with the
	// canonical cookie (the MAC already passed above).
	m := g.prog.NewMachine()
	g.canonAckc.Set(g.canonMagic, expr.U8(Magic))
	g.canonAckc.Set(g.canonKind, expr.U8(uint64(KindAckC)))
	g.canonAckc.Set(g.canonNonce, expr.U32(uint64(nonce)))
	g.canonAckc.Set(g.canonCookie, expr.U32(uint64(nonce)+1))
	g.canonAckc.Set(g.canonChk, expr.U8(0))
	res := g.step(m, g.evAckc, expr.FrameMsg(g.ackcShape, g.canonAckc))
	if res.Fired == nil || m.State() != stateEstablished {
		panic("session: canonical ACK-C did not establish the server machine")
	}
	pe := &gatePeer{m: m, eng: eng, lastSeen: g.rt.Now()}
	g.peers[from] = pe
	g.sh.Inc(obs.HandshakesOK)
	if resume != nil {
		delete(g.parked, from)
		pe.lastSnap = resume.Expect
		g.sh.Inc(obs.FlowsResumed)
	}
	g.snap(from, pe) // establish is itself a recoverable event
	g.armSweep()
}

// onFin answers teardown; a FIN from an unknown peer (a retransmit
// after our state was already dropped) is re-acked statelessly, which
// is the spec's Drained re-FIN self-loop.
func (g *Gate) onFin(from netsim.Addr) {
	pe := g.peers[from]
	if pe == nil {
		g.buf = g.codec.AppendFinAck(g.buf[:0])
		_ = g.port.Send(from, g.buf)
		return
	}
	res := g.step(pe.m, g.evFin) // Established -> Drained, FIN-ACK out
	g.sendOutputs(from, res)
	g.step(pe.m, g.evDone) // Drained -> Closed
	delete(g.peers, from)
	delete(g.parked, from)
	if g.cfg.Store != nil {
		g.cfg.Store.AppendDrop(g.flow, from)
	}
}

// Restore re-seeds one peer from a recovered record (rtnet calls this
// at startup for every surviving slot on the flow). Returns false when
// the record is stale or unusable — non-Established state, a corrupt
// canon, or the accept callback declining.
func (g *Gate) Restore(peer netsim.Addr, rec Rec) bool {
	if _, ok := g.peers[peer]; ok {
		return false
	}
	m := g.prog.NewMachine()
	rest, err := m.RestoreState(rec.Mach)
	if err != nil || len(rest) != 0 || m.State() != stateEstablished {
		return false
	}
	eng := g.cfg.Accept(peer, &Resume{Expect: rec.Expect})
	if eng == nil {
		return false
	}
	g.peers[peer] = &gatePeer{m: m, eng: eng, lastSeen: g.rt.Now(), lastSnap: rec.Expect}
	g.sh.Inc(obs.FlowsResumed)
	g.armSweep()
	return true
}

// step drives one machine; engine-side stimuli are always well-typed,
// so errors are bugs.
func (g *Gate) step(m *fsm.Machine, ev fsm.EventID, args ...expr.Value) fsm.FrameResult {
	res, err := m.StepEv(ev, args...)
	if err != nil {
		panic(fmt.Sprintf("session: gate step: %v", err))
	}
	return res
}

func (g *Gate) sendOutputs(to netsim.Addr, res fsm.FrameResult) {
	for i := range res.Outputs {
		out := &res.Outputs[i]
		k, ok := messageKinds[out.Message]
		if !ok {
			panic("session: server machine emitted unknown message " + out.Message)
		}
		g.buf = appendOutput(g.buf[:0], g.codec, k, out.Frame)
		_ = g.port.Send(to, g.buf)
	}
}

// maybeSnap appends a snapshot when the engine's progress moved.
func (g *Gate) maybeSnap(from netsim.Addr, pe *gatePeer) {
	if g.cfg.Store == nil || pe.eng.Progress == nil {
		return
	}
	if p := pe.eng.Progress(); p != pe.lastSnap {
		pe.lastSnap = p
		g.snap(from, pe)
	}
}

func (g *Gate) snap(from netsim.Addr, pe *gatePeer) {
	if g.cfg.Store == nil {
		return
	}
	g.snapBuf = pe.m.AppendState(g.snapBuf[:0])
	g.cfg.Store.Append(g.flow, from, pe.lastSnap, g.snapBuf)
}

func (g *Gate) armSweep() {
	if g.sweepT == nil || !g.sweepT.Active() {
		g.sweepT = g.rt.After(g.cfg.HeartbeatEvery, g.sweepFn)
	}
}

// sweep reaps peers that have been silent for K intervals: the spec's
// PEER_DOWN transition, the peer_down counter, and the engine dropped —
// but the snapshot slot survives, so a healed peer that re-handshakes
// resumes where it left off instead of stalling on stale acks.
func (g *Gate) sweep() {
	cutoff := g.rt.Now() - time.Duration(g.cfg.HeartbeatMisses)*g.cfg.HeartbeatEvery
	g.victims = g.victims[:0]
	for addr, pe := range g.peers {
		if pe.lastSeen <= cutoff {
			g.victims = append(g.victims, addr)
		}
	}
	for _, addr := range g.victims {
		pe := g.peers[addr]
		g.step(pe.m, g.evPeerDown) // Established -> Closed
		if pe.eng.Progress != nil {
			g.parked[addr] = pe.eng.Progress()
		}
		delete(g.peers, addr)
		g.sh.Inc(obs.PeerDown)
	}
	if len(g.peers) > 0 {
		g.sweepT = g.rt.After(g.cfg.HeartbeatEvery, g.sweepFn)
	}
}
