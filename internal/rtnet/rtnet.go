// Package rtnet is the real-network runtime: it carries the same
// compiled protocol engines that run inside internal/netsim onto actual
// UDP sockets, unchanged. The netsim.Port / netsim.Runtime / netsim.Mux
// contracts are the seam — an arq go-back-N or selective-repeat engine
// attached to an rtnet flow cannot tell it is no longer in simulation,
// except that time is real and the network genuinely loses packets.
//
// Architecture (one socket *per shard*, sharing one port):
//
//	socket 0 ── reader 0 ── batched reads ──┐
//	socket 1 ── reader 1 ── batched reads ──┼─► shard event loops ── engines
//	socket N ── reader N ── batched reads ──┘   (frames routed by flow id)
//
// A Node owns one UDP port. On Linux every shard gets its own socket
// bound to that port with SO_REUSEPORT — the kernel steers incoming
// flows across the sockets, so receive processing and socket buffering
// scale with the shard count instead of serialising on one socket lock
// — and each socket keeps the PR 3 single-reader-goroutine design,
// just multiplied. Logical flows are multiplexed with the netsim.Mux
// frame header (flow id + bitwise complement); readers validate the
// header and route each frame to the shard owning its flow id (id mod
// shards), whichever socket it arrived on. Each shard goroutine owns a
// timing-wheel Loop (real-clock timers with the simulator's
// cancel-really-cancels guarantee), a Mux, every engine attached to its
// flows, and its *own* socket for sends — preserving netsim's
// one-engine-one-goroutine contract: nothing inside a shard is ever
// touched by another goroutine.
//
// Outbound packets are staged per wakeup and flushed in one sendmmsg
// burst, with runs of equal-size frames to one peer coalesced into
// UDP_SEGMENT (GSO) super-datagrams — a wakeup's window of frames to a
// peer goes down as one syscall-side packet. Receives enable UDP_GRO,
// so such bursts come back up re-coalesced and are split in userspace.
// Both degrade gracefully (probed at Listen; portable fallbacks in
// io_fallback.go), and the steady-state send/receive path allocates
// nothing. See DESIGN.md §7.
//
// Concurrency contract: engine state may only be touched from its
// owning shard's loop. Cross-goroutine access goes through Node.Do /
// Flow.Do, which run a function inside the loop and wait for it.
//
// Robustness (DESIGN.md §13): the node degrades rather than stalls.
// Readers never block — a shard inbox already holding inboxFactor ×
// Config.Batch frames sheds the arriving frame (tail drop, counted as
// sheds on that shard, no other shard affected); engine panics
// are contained to the offending flow (panics_recovered); served
// engines idle past Config.IdleTimeout are reaped (flows_expired); and
// shutdown is two-phase: Drain (lame duck — no engines for new peers,
// in-flight work finishes) then Close (shards quiesce and flush before
// the sockets go away). Config.Faults interposes a deterministic chaos
// schedule on the send path for testing all of the above.
package rtnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/session"
	"protodsl/internal/timerwheel"
)

// traceRingSlots sizes each shard's packet-trace ring. Tracing is off
// by default; the rings are armed at Listen so it can be toggled at
// runtime (obs.Stats.SetTrace / the /trace endpoint) without ever
// allocating on the data path.
const traceRingSlots = 1024

// maxPeerNames bounds the reader's source-address string cache; see
// route.
const maxPeerNames = 1 << 16

// groDatagramSize is the blocking-read scratch size once UDP_GRO is
// active: a coalesced delivery can approach the 64 KiB UDP maximum
// regardless of MaxPacket.
const groDatagramSize = 1 << 16

// groBurst caps the recvmmsg burst once GRO is active: each burst slot
// then needs a 64 KiB buffer, and one coalesced delivery already
// carries many frames, so a small burst keeps memory bounded without
// costing syscalls.
const groBurst = 8

// Package errors.
var (
	// ErrClosed is returned for operations on a closed Node.
	ErrClosed = errors.New("rtnet: node closed")
	// ErrBadAddr is returned when a destination address cannot be parsed
	// as ip:port.
	ErrBadAddr = errors.New("rtnet: bad address")
)

// Config parameterises a Node. The zero value selects sensible
// defaults.
type Config struct {
	// Shards is the number of worker event loops (flow id mod Shards
	// picks the owner) and — where SO_REUSEPORT is available — the
	// number of sockets sharing the node's port, one per shard. Zero
	// selects min(GOMAXPROCS, 4).
	Shards int
	// MaxPacket is the largest UDP datagram accepted or staged, mux
	// header included. Zero selects 2048.
	MaxPacket int
	// Batch is the number of packets handed to a shard per wakeup and
	// the burst size of the batched read/write paths. Zero selects 32.
	Batch int
	// SocketBuffer sizes the kernel send/receive buffers (per socket).
	// Zero selects 1 MiB.
	SocketBuffer int
	// MaxPeersPerFlow caps how many distinct peers a *served* flow will
	// spawn engines for (Serve); datagrams from further peers on that
	// flow are dropped. UDP sources are trivially spoofable, so without
	// a cap a source-address sweep would grow server memory without
	// bound. Zero selects 1024. Flows claimed with Node.Flow are not
	// affected.
	MaxPeersPerFlow int
	// SingleSocket forces one shared socket even where SO_REUSEPORT is
	// available (the pre-REUSEPORT data path; the scaling benchmark's
	// baseline).
	SingleSocket bool
	// IdleTimeout, if positive, expires served (flow, peer) engines that
	// have received no frame for this long: the engine state is dropped
	// (counted as flows_expired) and the next frame from that peer
	// spawns a fresh engine. This is the server's defence against
	// abandoned peers pinning memory forever; set it well above the
	// flows' inter-packet gaps (RTO × retries), because expiring a
	// mid-transfer engine discards its reassembly state. Zero disables
	// expiry. Flows claimed with Node.Flow are not affected.
	IdleTimeout time.Duration
	// Faults, if non-nil, interposes a fault-injection schedule
	// (internal/faults) on the node's send path: each shard derives its
	// own injector (instance id = shard index) and consults it on every
	// staged frame, on the node's clock (time since Listen). Injected
	// drops are counted as drop_fault; injected delays re-stage a copy
	// of the frame through the shard's timing wheel. Nil injects nothing
	// and adds nothing to the hot path but one nil check.
	Faults *faults.Schedule
}

func (c *Config) applyDefaults() {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
		if c.Shards > 4 {
			c.Shards = 4
		}
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = 2048
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	if c.SocketBuffer <= 0 {
		c.SocketBuffer = 1 << 20
	}
	if c.MaxPeersPerFlow <= 0 {
		c.MaxPeersPerFlow = 1024
	}
}

// inboxFactor bounds every shard inbox at inboxFactor × Config.Batch
// frames: about what a depth-4 queue of batches, the batch in delivery
// and the readers' half-filled batches could hold at most, but counted
// in frames, so a descheduled shard is not charged a whole batch for
// every reader wakeup it sleeps through.
const inboxFactor = 8

// pkt is one received frame, mux header still attached, at
// buf[off:end] of its batch.
type pkt struct {
	from     netsim.Addr
	off, end int
}

// batch is a reusable bundle of received frames. Its buffers start at
// Batch frames and grow by append only under load; frames are
// addressed by offset, so growth never invalidates them.
type batch struct {
	pkts []pkt
	buf  []byte
}

func newBatch(cfg Config) *batch {
	return &batch{
		pkts: make([]pkt, 0, cfg.Batch),
		buf:  make([]byte, 0, cfg.Batch*cfg.MaxPacket),
	}
}

// inbox is one shard's receive queue. Readers append frames to cur
// under mu and kick wake once per burst and after every Batch frames;
// the shard swaps cur for its empty spare on every wake, so the queue
// is bounded in frames, not in reader wakeups.
type inbox struct {
	mu     sync.Mutex
	cur    *batch
	closed bool          // set after every reader has exited
	wake   chan struct{} // one slot: a pending kick covers every frame before it
}

func (in *inbox) kick() {
	select {
	case in.wake <- struct{}{}:
	default:
	}
}

// Node is one UDP port carrying many logical flows. Create with
// Listen; see the package comment for the threading model.
type Node struct {
	conns    []*net.UDPConn    // one per shard (REUSEPORT) or one shared
	raws     []syscall.RawConn // parallel to conns
	start    time.Time
	addr     netsim.Addr
	v6       bool
	gso      bool // UDP_SEGMENT accepted on the sockets
	gro      bool // UDP_GRO active on the sockets
	cfg      Config
	shards   []*Shard
	done     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
	readerWg sync.WaitGroup
	shardWg  sync.WaitGroup
	draining atomic.Bool

	// stats is the node's observability block: one padded shard of
	// atomic counters/histograms/trace ring per worker shard, allocated
	// once here and written lock-free from the loops. Reader-side drops
	// are attributed to the reading socket's shard; everything else to
	// the owning shard.
	stats *obs.Stats

	// sessionStores are the per-shard crash-recovery logs opened by
	// ServeSession (empty without a state dir); closed after the shard
	// loops quiesce so no append races the teardown.
	sessionStores []*session.Store
}

// listenSockets binds the node's socket group: one SO_REUSEPORT socket
// per shard where the platform supports it (unless cfg.SingleSocket),
// one plain socket otherwise. All sockets share the same port; the
// first bind picks it when addr's port is 0.
func listenSockets(addr string, cfg Config) ([]*net.UDPConn, error) {
	single := func() ([]*net.UDPConn, error) {
		ua, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			return nil, err
		}
		conn, err := net.ListenUDP("udp", ua)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{conn}, nil
	}
	if !reusePortSupported || cfg.SingleSocket || cfg.Shards == 1 {
		return single()
	}
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		return setReusePort(c)
	}}
	first, err := lc.ListenPacket(context.Background(), "udp", addr)
	if err != nil {
		// SO_REUSEPORT refused (unusual on Linux): fall back to the
		// single-socket data path rather than failing the node.
		return single()
	}
	conns := []*net.UDPConn{first.(*net.UDPConn)}
	bound := first.LocalAddr().String()
	for len(conns) < cfg.Shards {
		pc, err := lc.ListenPacket(context.Background(), "udp", bound)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("rtnet: binding REUSEPORT socket %d to %s: %w", len(conns), bound, err)
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	return conns, nil
}

// Listen opens the node's socket group on addr (e.g. "127.0.0.1:0")
// and starts the reader and shard goroutines.
func Listen(addr string, cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	conns, err := listenSockets(addr, cfg)
	if err != nil {
		return nil, err
	}
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	raws := make([]syscall.RawConn, len(conns))
	for i, conn := range conns {
		_ = conn.SetReadBuffer(cfg.SocketBuffer)
		_ = conn.SetWriteBuffer(cfg.SocketBuffer)
		raw, err := conn.SyscallConn()
		if err != nil {
			closeAll()
			return nil, err
		}
		raws[i] = raw
	}
	lap := conns[0].LocalAddr().(*net.UDPAddr).AddrPort()
	canonical := netip.AddrPortFrom(lap.Addr().Unmap(), lap.Port())
	n := &Node{
		conns: conns,
		raws:  raws,
		start: time.Now(),
		addr:  netsim.Addr(canonical.String()),
		v6:    lap.Addr().Is6() && !lap.Addr().Is4In6(),
		cfg:   cfg,
		done:  make(chan struct{}),
		stats: obs.New(cfg.Shards, traceRingSlots),
	}
	// Segmentation offload: probe once (the sockets are identical),
	// enable GRO everywhere it took.
	n.gso = probeGSO(raws[0])
	n.gro = true
	for _, raw := range raws {
		if !enableGRO(raw) {
			n.gro = false
			break
		}
	}
	n.shards = make([]*Shard, cfg.Shards)
	for i := range n.shards {
		n.shards[i] = newShard(n, i)
	}
	n.wg.Add(1 + len(n.shards) + len(conns))
	n.readerWg.Add(len(conns))
	n.shardWg.Add(len(n.shards))
	for _, s := range n.shards {
		go s.run()
	}
	for i := range conns {
		go n.readLoop(i, conns[i], raws[i])
	}
	// Shard inboxes close only after every reader has exited.
	go func() {
		defer n.wg.Done()
		n.readerWg.Wait()
		for _, s := range n.shards {
			s.in.mu.Lock()
			s.in.closed = true
			s.in.mu.Unlock()
			s.in.kick()
		}
	}()
	return n, nil
}

// Addr returns the node's local address ("ip:port"), the identity its
// frames carry on the wire.
func (n *Node) Addr() netsim.Addr { return n.addr }

// Shards returns the number of worker event loops the node runs (the
// configured count after defaulting). Flow id mod Shards picks the
// owning loop.
func (n *Node) Shards() int { return len(n.shards) }

// Sockets returns how many sockets share the node's port (Shards where
// SO_REUSEPORT is in effect, 1 otherwise).
func (n *Node) Sockets() int { return len(n.conns) }

// Offloads reports whether UDP generic segmentation (send) and receive
// coalescing are active on the node's sockets.
func (n *Node) Offloads() (gso, gro bool) { return n.gso, n.gro }

// Obs returns the node's observability block: per-shard counters, RTT
// histograms and trace rings, readable from any goroutine at any time.
func (n *Node) Obs() *obs.Stats { return n.stats }

// Drops returns the number of datagrams discarded at the node for a
// short or corrupted mux header, an oversize frame, or an unspeakable
// source family — attacker-controlled bytes that never reach a shard.
// It sums the receive-side drop-reason counters (see Obs for the
// breakdown); per-flow drops (unclaimed ids) are counted by each
// shard's Mux on top of this.
func (n *Node) Drops() uint64 {
	return n.stats.Total(obs.DropBadHeader) +
		n.stats.Total(obs.DropOversize) +
		n.stats.Total(obs.DropBadSource)
}

// SendErrors returns the number of staged packets the socket refused
// (treated as wire loss: ARQ recovers them). It sums the send-side
// drop-reason counters; see Obs for the breakdown.
func (n *Node) SendErrors() uint64 {
	return n.stats.Total(obs.DropSendError) + n.stats.Total(obs.DropSendFamily)
}

// Close shuts the node down: readers are unblocked and exit, shard
// loops drain their inboxes, run one final flush, and exit, and only
// then are the sockets closed. Pending timers are dropped. Close is
// idempotent.
//
// The ordering matters: readers are kicked out of their blocking reads
// with a read deadline rather than by closing the sockets, because the
// shard loops' final sendmmsg flush still needs the file descriptors —
// closing them first raced the in-flight flush against fd teardown
// (send errors at best, a reused descriptor at worst). For an orderly
// shutdown that also finishes in-flight transfers, call Drain first.
func (n *Node) Close() error {
	n.once.Do(func() {
		close(n.done)
		// Unblock every reader without touching the fds: a deadline in
		// the past fails the blocking read immediately, the reader sees
		// closed() and exits, and the closer goroutine then shuts the
		// shard inboxes.
		past := time.Now().Add(-time.Second)
		for _, c := range n.conns {
			_ = c.SetReadDeadline(past)
		}
	})
	// Shards finish their final flush on still-open sockets before the
	// fds go away.
	n.shardWg.Wait()
	for _, st := range n.sessionStores {
		_ = st.Close()
	}
	for _, c := range n.conns {
		_ = c.Close()
	}
	n.wg.Wait()
	return nil
}

// Drain quiescence tuning: activity is sampled every drainPoll, and the
// node is deemed quiescent after drainQuiet with no frame or
// ARQ-timeout activity anywhere. The quiet window is sized above the
// RTO of a healthy flow — a live transfer bumps frames or timeouts at
// least that often — so the flows drain abandons are the ones backed
// off past it, whose peers are plausibly gone (see DESIGN.md §13).
const (
	drainPoll         = 2 * time.Millisecond
	drainQuiet        = 60 * time.Millisecond
	defaultDrainLimit = 5 * time.Second
)

// activity sums the counters any live flow must keep moving: frames in
// either direction, or retransmission-timer fires.
func (n *Node) activity() uint64 {
	return n.stats.Total(obs.FramesIn) +
		n.stats.Total(obs.FramesOut) +
		n.stats.Total(obs.Timeouts)
}

// Drain moves the node into lame-duck mode and waits for in-flight
// work to finish: served flows stop accepting engines for new peers
// (frames from them are dropped and counted as drop_draining — their
// senders see it as loss), while established flows keep running until
// the whole node has been quiet for drainQuiet. Drain returns nil once
// quiescent; on reaching timeout (zero selects 5s) it returns an error
// with the node still running, so the caller chooses between waiting
// longer and closing anyway. Call Close afterwards either way — a
// typical shutdown is Drain, log any stragglers, Close.
func (n *Node) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = defaultDrainLimit
	}
	n.draining.Store(true)
	deadline := time.Now().Add(timeout)
	last := n.activity()
	lastChange := time.Now()
	for {
		if n.closed() {
			return ErrClosed
		}
		time.Sleep(drainPoll)
		now := time.Now()
		if cur := n.activity(); cur != last {
			last, lastChange = cur, now
		} else if now.Sub(lastChange) >= drainQuiet {
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("rtnet: drain timed out after %s (activity still moving)", timeout)
		}
	}
}

// Dial resolves remote ("host:port") to the canonical address frames
// from this node will carry to it. It performs no handshake — UDP has
// none — it only fixes the peer's identity, and rejects destinations
// the node's socket family can never reach (a v6 destination on a
// v4-bound node would otherwise blackhole every send).
func (n *Node) Dial(remote string) (netsim.Addr, error) {
	ua, err := net.ResolveUDPAddr("udp", remote)
	if err != nil {
		return "", err
	}
	ap := ua.AddrPort()
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	if !n.v6 && !ap.Addr().Is4() && !ap.Addr().Is4In6() {
		return "", fmt.Errorf("%w: %s resolves to IPv6 %s but this node's socket is IPv4-only (listen on an IPv6 or wildcard address to reach it)",
			ErrBadAddr, remote, ap)
	}
	return netsim.Addr(ap.String()), nil
}

func (n *Node) shardFor(id byte) *Shard { return n.shards[int(id)%len(n.shards)] }

// Do runs fn inside the event loop of the shard owning flow id and
// waits for it to finish — the only safe way to touch engine state from
// outside the loop. It must not be called from inside a shard loop.
func (n *Node) Do(id byte, fn func()) error { return n.shardFor(id).do(fn) }

// Flow claims the given flow id on its owning shard and returns a
// handle for attaching an engine to it.
func (n *Node) Flow(id byte) (*Flow, error) {
	sh := n.shardFor(id)
	var (
		fp   *netsim.FlowPort
		ferr error
	)
	if err := sh.do(func() { fp, ferr = sh.mux.Flow(id) }); err != nil {
		return nil, err
	}
	if ferr != nil {
		return nil, ferr
	}
	return &Flow{sh: sh, fp: fp}, nil
}

// Flow is one claimed logical flow of a Node.
type Flow struct {
	sh *Shard
	fp *netsim.FlowPort
}

// Do runs fn inside the owning shard's event loop, handing it the
// shard's Runtime and this flow's Port, and waits for it to finish.
// Engines are attached here; both window variants return the one
// *arq.WindowSender type:
//
//	var sender *arq.WindowSender
//	flow.Do(func(rt netsim.Runtime, port netsim.Port) {
//	    sender, err = arq.AttachGBNSender(rt, port, peer, cfg, payloads, onDone)
//	})
func (f *Flow) Do(fn func(rt netsim.Runtime, port netsim.Port)) error {
	return f.sh.do(func() { fn(f.sh.loop, f.fp) })
}

// AcceptFunc decides what to attach when a frame arrives on a served
// flow from a peer not seen before on that flow. It runs inside the
// owning shard's loop and returns the handler for that (flow, peer)
// pair — typically an arq receiver's OnDatagram — or nil to drop all
// traffic from that peer on that flow.
type AcceptFunc func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(from netsim.Addr, data []byte)

// Serve claims every still-unclaimed flow id and installs accept as the
// demultiplexer: one engine per (flow, peer) pair, spawned inside the
// owning shard's loop on first contact. Flows claimed earlier (Node.Flow)
// are left alone, so a node can serve and originate at once.
func (n *Node) Serve(accept AcceptFunc) error {
	for _, sh := range n.shards {
		sh := sh
		err := sh.do(func() {
			for id := 0; id < 256; id++ {
				if n.shardFor(byte(id)) != sh {
					continue
				}
				fp, err := sh.mux.Flow(byte(id))
				if err != nil {
					continue // claimed by the caller: not ours to serve
				}
				installAcceptor(sh, fp, byte(id), accept)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// peerEngine is one served (flow, peer) engine plus the idle-expiry
// stamp the sweep reads.
type peerEngine struct {
	h        func(netsim.Addr, []byte)
	lastSeen time.Duration
}

// acceptor owns one served flow's peer table. It lives entirely inside
// its shard's loop; the shard registers it for the idle sweep.
type acceptor struct {
	engines map[netsim.Addr]*peerEngine
}

func installAcceptor(sh *Shard, fp *netsim.FlowPort, id byte, accept AcceptFunc) {
	a := &acceptor{engines: make(map[netsim.Addr]*peerEngine)}
	sh.acceptors = append(sh.acceptors, a)
	maxPeers := sh.node.cfg.MaxPeersPerFlow
	fp.SetHandler(func(from netsim.Addr, data []byte) {
		pe, seen := a.engines[from]
		if !seen {
			if sh.node.draining.Load() {
				// Lame duck: no engines for new peers. Their sender sees
				// plain loss and retries elsewhere or gives up.
				sh.obs.Inc(obs.DropDraining)
				return
			}
			if len(a.engines) >= maxPeers {
				// Peer table full: spoofed-source sweeps stop here.
				sh.obs.Inc(obs.DropPeerLimit)
				return
			}
			pe = &peerEngine{h: accept(sh.loop, fp, from, id)}
			a.engines[from] = pe
			sh.armIdleSweep()
		}
		pe.lastSeen = sh.loop.Now()
		if pe.h != nil {
			pe.h(from, data)
		}
	})
}

// armIdleSweep starts the shard's recurring idle-expiry timer (once,
// lazily, on the first served peer) when Config.IdleTimeout is set. The
// sweep runs on the shard's own timing wheel — the same loop that owns
// the peer tables — so expiry needs no locks: it walks every acceptor,
// deletes peers idle past the timeout (counted as flows_expired), and
// rearms itself.
func (s *Shard) armIdleSweep() {
	idle := s.node.cfg.IdleTimeout
	if idle <= 0 || s.sweeping {
		return
	}
	s.sweeping = true
	interval := idle / 2
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	var sweep func()
	sweep = func() {
		now := s.loop.Now()
		for _, a := range s.acceptors {
			for peer, pe := range a.engines {
				if now-pe.lastSeen >= idle {
					delete(a.engines, peer)
					s.obs.Inc(obs.FlowsExpired)
				}
			}
		}
		s.loop.After(interval, sweep)
	}
	s.loop.After(interval, sweep)
}

// readLoop is one socket's reader goroutine: blocking read,
// opportunistic non-blocking burst behind it (recvmmsg where
// available), GRO bundles split back into frames and appended to their
// shards' inboxes, then one kick per destination shard per burst —
// many packets per wakeup, none copied more than once, no allocation
// in steady state. With SO_REUSEPORT there is one readLoop per shard
// socket; any reader may receive any flow's frames (the kernel steers
// by address hash), so each routes by flow id.
func (n *Node) readLoop(idx int, conn *net.UDPConn, raw syscall.RawConn) {
	defer n.wg.Done()
	defer n.readerWg.Done()
	// Reader-side events (malformed drops, GRO coalescing) are counted
	// into the reading socket's own stats shard: with SO_REUSEPORT that
	// is this reader's dedicated block, under a single shared socket it
	// is shard 0. Frame/byte counts land on the *owning* shard when the
	// frame is delivered.
	rs := n.stats.Shard(idx % n.stats.NumShards())
	names := make(map[netip.AddrPort]netsim.Addr)
	touched := make([]bool, len(n.shards))
	// One byte past MaxPacket: a larger datagram the kernel would
	// silently truncate to the buffer size then reads as MaxPacket+1,
	// so the route() oversize guard catches it instead of delivering a
	// truncated-but-plausible frame.
	scratchSize := n.cfg.MaxPacket + 1
	burst := n.cfg.Batch
	var oob []byte
	if n.gro {
		// Coalesced deliveries are only bounded by the UDP maximum.
		scratchSize = groDatagramSize
		if burst > groBurst {
			burst = groBurst
		}
		oob = make([]byte, 64)
	}
	scratch := make([]byte, scratchSize)
	br := newBurstReader(burst, scratchSize)
	for {
		nb, oobn, _, ap, err := conn.ReadMsgUDPAddrPort(scratch, oob)
		if err != nil {
			if n.closed() || errors.Is(err, net.ErrClosed) {
				return
			}
			continue // transient socket error: keep serving
		}
		seg := 0
		if oobn > 0 {
			seg = parseGROCmsg(oob[:oobn])
		}
		n.routeDatagram(touched, names, rs, ap, scratch[:nb], seg)
		for {
			count := br.read(raw)
			for i := 0; i < count; i++ {
				data, from, seg := br.packet(i)
				if !from.IsValid() {
					rs.Inc(obs.DropBadSource)
					continue
				}
				n.routeDatagram(touched, names, rs, from, data, seg)
			}
			for si, t := range touched {
				if t {
					touched[si] = false
					n.shards[si].in.kick()
				}
			}
			if count < br.capacity() || count == 0 {
				break // socket drained (or burst reads unavailable)
			}
		}
	}
}

func (n *Node) closed() bool {
	select {
	case <-n.done:
		return true
	default:
		return false
	}
}

// routeDatagram feeds one received datagram to route, splitting
// GRO-coalesced bundles (seg > 0) back into their wire frames first.
func (n *Node) routeDatagram(touched []bool, names map[netip.AddrPort]netsim.Addr, rs *obs.Shard, ap netip.AddrPort, data []byte, seg int) {
	if seg <= 0 || len(data) <= seg {
		n.route(touched, names, rs, ap, data)
		return
	}
	rs.Inc(obs.GROBundles)
	for off := 0; off < len(data); off += seg {
		end := off + seg
		if end > len(data) {
			end = len(data)
		}
		rs.Inc(obs.GROSegments)
		n.route(touched, names, rs, ap, data[off:end])
	}
}

// route validates the mux header and appends the frame to the owning
// shard's inbox, marking the shard touched for this burst's kick.
// Oversize frames (possible once GRO widens the receive buffers past
// MaxPacket) are dropped here like any other malformed input, each
// under its own drop-reason counter. A full inbox sheds the arriving
// frame rather than block the reader behind a slow shard: a stalled
// reader backs traffic up into the kernel buffer and then drops
// *there*, invisibly and for every shard at once.
func (n *Node) route(touched []bool, names map[netip.AddrPort]netsim.Addr, rs *obs.Shard, ap netip.AddrPort, data []byte) {
	if len(data) < 2 || data[1] != ^data[0] {
		rs.Inc(obs.DropBadHeader)
		return
	}
	if len(data) > n.cfg.MaxPacket {
		rs.Inc(obs.DropOversize)
		return
	}
	from, ok := names[ap]
	if !ok {
		// The name cache is bounded: a spoofed-source sweep would
		// otherwise grow it without limit. Resetting loses only cached
		// strings; legitimate peers are re-interned on their next packet.
		if len(names) >= maxPeerNames {
			clear(names)
		}
		canonical := netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
		from = netsim.Addr(canonical.String())
		names[ap] = from
	}
	si := int(data[0]) % len(n.shards)
	sh := n.shards[si]
	sh.in.mu.Lock()
	b := sh.in.cur
	if len(b.pkts) >= inboxFactor*n.cfg.Batch {
		sh.in.mu.Unlock()
		sh.obs.Inc(obs.Sheds)
		return
	}
	off := len(b.buf)
	b.buf = append(b.buf, data...)
	b.pkts = append(b.pkts, pkt{from: from, off: off, end: len(b.buf)})
	full := len(b.pkts)%n.cfg.Batch == 0
	sh.in.mu.Unlock()
	if full {
		// A GRO burst can carry hundreds of frames: let the shard start
		// on each Batch of them while the reader splits the rest.
		sh.in.kick()
	}
	touched[si] = true
}

// outPkt is one staged outbound packet; the payload lives in the
// shard's staging buffer.
type outPkt struct {
	to       netip.AddrPort
	off, end int
}

// Shard is one worker event loop: a Loop (timers), a Mux (flow
// framing), the engines attached to its flows, its own socket (under
// SO_REUSEPORT) and a staging area for this wakeup's outbound packets.
// Everything in it belongs to its own goroutine.
type Shard struct {
	node  *Node
	loop  *Loop
	obs   *obs.Shard // this shard's stats block (same index in node.stats)
	raw   syscall.RawConn
	in    inbox  // filled by the readers (route), emptied by take
	spare *batch // empty; swapped into in on the next take
	call  chan func()
	mux   *netsim.Mux
	port  *shardPort

	// Outbound staging: packets queued by engines during one wakeup,
	// flushed in one batch before the loop blocks again.
	out    []outPkt
	outBuf []byte
	sender *burstSender
	peers  map[netsim.Addr]netip.AddrPort

	// faults is this shard's private injector compiled from Config.Faults
	// (nil when chaos is off); consulted on every staged send.
	faults *faults.Injector
	// acceptors are the served flows owned by this shard, registered so
	// the idle sweep can walk their peer tables.
	acceptors []*acceptor
	sweeping  bool // idle sweep timer armed
}

func newShard(n *Node, idx int) *Shard {
	s := &Shard{
		node:   n,
		loop:   newLoop(n.start),
		obs:    n.stats.Shard(idx),
		raw:    n.raws[idx%len(n.raws)],
		in:     inbox{cur: newBatch(n.cfg), wake: make(chan struct{}, 1)},
		spare:  newBatch(n.cfg),
		call:   make(chan func(), 16),
		out:    make([]outPkt, 0, n.cfg.Batch),
		outBuf: make([]byte, 0, n.cfg.Batch*n.cfg.MaxPacket),
		sender: newBurstSender(n.cfg.Batch),
		peers:  make(map[netsim.Addr]netip.AddrPort),
	}
	s.loop.obs = s.obs
	s.port = &shardPort{shard: s}
	s.mux = netsim.NewMux(s.port)
	if n.cfg.Faults != nil {
		// Validated at Listen; the shard index keys an independent but
		// individually reproducible PRNG stream per shard.
		s.faults = n.cfg.Faults.MustInstance(int64(idx))
	}
	return s
}

// do runs fn inside the shard loop and waits for it. The done close is
// deferred so a panicking fn (contained by the loop's recovery) still
// releases the waiter.
func (s *Shard) do(fn func()) error {
	done := make(chan struct{})
	select {
	case s.call <- func() { defer close(done); fn() }:
	case <-s.node.done:
		return ErrClosed
	}
	select {
	case <-done:
		return nil
	case <-s.node.done:
		// The loop may already have exited; don't hang on shutdown.
		select {
		case <-done:
			return nil
		case <-time.After(100 * time.Millisecond):
			return ErrClosed
		}
	}
}

// run is the shard's event loop. Each wakeup: drain whatever is ready
// (inbound batches, cross-goroutine calls, due timers), then flush the
// staged writes in one burst and block again.
func (s *Shard) run() {
	defer s.node.wg.Done()
	defer s.node.shardWg.Done()
	tm := time.NewTimer(time.Hour)
	if !tm.Stop() {
		<-tm.C
	}
	for {
		s.flush()
		var timerC <-chan time.Time
		if at, ok := s.loop.next(); ok {
			d := at - s.loop.Now()
			if d <= 0 {
				s.loop.runDue()
				continue
			}
			tm.Reset(d)
			timerC = tm.C
		}
		select {
		case <-s.in.wake:
			if s.take() {
				s.flush()
				return
			}
		case fn := <-s.call:
			s.loop.shielded(timerwheel.Func(fn))
			s.loop.runPosted()
		case <-timerC:
			s.loop.runDue()
		}
		// Opportunistically drain queued work before paying for another
		// flush + select round trip.
		for {
			select {
			case <-s.in.wake:
				if s.take() {
					s.flush()
					return
				}
				continue
			case fn := <-s.call:
				s.loop.shielded(timerwheel.Func(fn))
				s.loop.runPosted()
				continue
			default:
			}
			break
		}
		if timerC != nil && !tm.Stop() {
			select {
			case <-tm.C:
			default:
			}
		}
		s.loop.runDue()
	}
}

// take swaps the inbox's batch for the shard's empty spare, delivers
// every frame in it, and keeps it as the next spare. It reports whether
// the inbox is closed: then nothing can follow the frames just
// delivered.
func (s *Shard) take() (closed bool) {
	s.in.mu.Lock()
	b := s.in.cur
	s.in.cur, closed = s.spare, s.in.closed
	s.in.mu.Unlock()
	s.deliver(b)
	b.pkts = b.pkts[:0]
	b.buf = b.buf[:0]
	s.spare = b
	return closed
}

// deliver feeds one batch of frames to the shard's mux, counting every
// frame against this shard (the owning loop is the single writer of
// its frames_in/bytes_in, so the adds never contend).
func (s *Shard) deliver(b *batch) {
	trace := s.node.stats.TraceOn()
	for i := range b.pkts {
		p := &b.pkts[i]
		data := b.buf[p.off:p.end]
		s.obs.Inc(obs.FramesIn)
		s.obs.Add(obs.BytesIn, uint64(len(data)))
		if trace {
			s.obs.Ring().Record(s.loop.Now(), obs.KindDeliver, data[0], len(data), 0, 0)
		}
		if h := s.port.handler; h != nil {
			s.loop.shieldHandler(h, p.from, data)
		}
		s.loop.runPosted()
	}
}

// flush writes every staged packet in one burst on the shard's own
// socket (sendmmsg + GSO coalescing where available). Socket refusals
// are dropped like wire loss; the sender counts them by reason
// (drop_send_error / drop_send_family) along with GSO coalescing stats.
func (s *Shard) flush() {
	if len(s.out) == 0 {
		return
	}
	s.sender.send(s, s.out, s.outBuf)
	s.out = s.out[:0]
	s.outBuf = s.outBuf[:0]
}

func (s *Shard) resolve(to netsim.Addr) (netip.AddrPort, error) {
	if ap, ok := s.peers[to]; ok {
		return ap, nil
	}
	ap, err := netip.ParseAddrPort(string(to))
	if err != nil {
		return netip.AddrPort{}, fmt.Errorf("%w: %q: %v", ErrBadAddr, to, err)
	}
	ap = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	s.peers[to] = ap
	return ap, nil
}

// shardPort is the physical netsim.Port a shard's Mux wraps: Send
// stages a packet for this wakeup's flush; received frames are pushed
// into the handler (the mux's dispatch) by the shard loop.
type shardPort struct {
	shard   *Shard
	handler func(from netsim.Addr, data []byte)
}

var _ netsim.Port = (*shardPort)(nil)

// Addr returns the node's local address.
func (p *shardPort) Addr() netsim.Addr { return p.shard.node.addr }

// Send stages data for the shard's next flush. The bytes are copied
// into the staging buffer immediately (callers reuse their encode
// buffers, exactly as with netsim.Endpoint.Send).
func (p *shardPort) Send(to netsim.Addr, data []byte) error {
	s := p.shard
	if len(data) > s.node.cfg.MaxPacket {
		// Counted, not just returned: engines historically ignore Send
		// errors (the simulator's Send cannot fail this way), so without
		// the counter an oversize frame vanished without a trace.
		s.obs.Inc(obs.DropSendOversize)
		return fmt.Errorf("rtnet: packet %d bytes exceeds MaxPacket %d", len(data), s.node.cfg.MaxPacket)
	}
	ap, err := s.resolve(to)
	if err != nil {
		return err
	}
	s.obs.Inc(obs.FramesOut)
	s.obs.Add(obs.BytesOut, uint64(len(data)))
	if s.node.stats.TraceOn() && len(data) > 0 {
		s.obs.Ring().Record(s.loop.Now(), obs.KindSend, data[0], len(data), 0, 0)
	}
	if s.faults != nil {
		// Chaos interposer, mirroring the netsim link hook: drops vanish
		// before staging (the peer sees wire loss), delays re-stage a
		// copy through the timing wheel. The copy is the one allocation
		// on this path and only the delayed chaos path pays it — the
		// caller's buffer is reused the moment Send returns.
		v := s.faults.Apply(s.loop.Now())
		if v.Drop {
			s.obs.Inc(obs.DropFault)
			return nil
		}
		if v.Delay > 0 {
			delayed := append([]byte(nil), data...)
			s.loop.After(v.Delay, func() { s.stage(ap, delayed) })
			return nil
		}
	}
	s.stage(ap, data)
	return nil
}

// stage queues one packet for the shard's next flush, copying the bytes
// into the staging buffer.
func (s *Shard) stage(ap netip.AddrPort, data []byte) {
	off := len(s.outBuf)
	s.outBuf = append(s.outBuf, data...)
	s.out = append(s.out, outPkt{to: ap, off: off, end: len(s.outBuf)})
}

// SetHandler installs the receive callback (the shard's mux dispatch).
func (p *shardPort) SetHandler(fn func(from netsim.Addr, data []byte)) { p.handler = fn }

// ObsShard exposes the shard's stats block through the port (obs.Source),
// so the Mux wrapping it counts its drops into the right shard.
func (p *shardPort) ObsShard() *obs.Shard { return p.shard.obs }
