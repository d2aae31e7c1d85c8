package rtnet

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/session"
)

// chaosServer tracks the engines the soak's session gates spawn: GBN
// receivers for transfer flows, the scripted counting engine on flow
// 62, and every resume point handed back through the snapshot/parked
// paths.
type chaosServer struct {
	mu      sync.Mutex
	recvs   map[recvKey]*arq.GBNReceiver
	resumes map[byte]uint64 // resume.Expect per flow, last accept wins
	e62     *count62
	e62gen  int // bumped on every flow-62 accept (handshake or resume)
}

// count62 is flow 62's dedicated engine: frames are one-byte indices,
// counted in order and deduplicated, so the test can script loss-proof
// progress without an ARQ stack and read the exact resume point back.
type count62 struct{ expect uint64 }

// proverPace throttles the crash-prover receivers (flows 28/29) so the
// server cannot finish their 2000-payload streams before the crash:
// 2000 frames take at least 600ms of server time, and the kill lands
// as soon as both provers have delivered something (see
// awaitProversMidFlight), so both flows are mid-flight and must ride
// the snapshot path.
const proverPace = 300 * time.Microsecond

const proverPayloads = 2000

func (s *chaosServer) receiver(peer netsim.Addr, flow byte) *arq.GBNReceiver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recvs[recvKey{peer, flow}]
}

func (s *chaosServer) gen62() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e62gen
}

// serveChaosSessions stands up one server incarnation: a raw echo on
// pre-claimed flow 63 (ServeSession leaves claimed flows alone) and
// session gates everywhere else — the same accept callback serves the
// rogue, slow, scripted and transfer engines, fresh or resumed.
func serveChaosSessions(node *Node, scfg SessionConfig) (*chaosServer, error) {
	ef, err := node.Flow(63)
	if err != nil {
		return nil, err
	}
	if err := ef.Do(func(rt netsim.Runtime, port netsim.Port) {
		port.SetHandler(func(from netsim.Addr, data []byte) { _ = port.Send(from, data) })
	}); err != nil {
		return nil, err
	}
	s := &chaosServer{recvs: make(map[recvKey]*arq.GBNReceiver), resumes: make(map[byte]uint64)}
	err = node.ServeSession(scfg, func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte, resume *session.Resume) *session.Engine {
		if resume != nil {
			s.mu.Lock()
			s.resumes[flow] = resume.Expect
			s.mu.Unlock()
		}
		switch flow {
		case 60: // rogue engine: panics on every frame
			return &session.Engine{Handle: func(netsim.Addr, []byte) { panic("chaos: rogue engine") }}
		case 61: // pathologically slow engine: forces shedding
			return &session.Engine{Handle: func(netsim.Addr, []byte) { time.Sleep(2 * time.Millisecond) }}
		case 62:
			e := &count62{}
			if resume != nil {
				e.expect = resume.Expect
			}
			s.mu.Lock()
			s.e62, s.e62gen = e, s.e62gen+1
			s.mu.Unlock()
			return &session.Engine{
				Handle: func(_ netsim.Addr, data []byte) {
					if len(data) > 0 && uint64(data[0]) == e.expect {
						e.expect++
					}
				},
				Progress: func() uint64 { return e.expect },
			}
		default:
			r, rerr := arq.NewGBNReceiver(port, peer)
			if rerr != nil {
				return nil
			}
			if resume != nil {
				r.SeedExpect(resume.Expect)
			}
			s.mu.Lock()
			s.recvs[recvKey{peer, flow}] = r
			s.mu.Unlock()
			h := r.OnDatagram
			if flow == 28 || flow == 29 {
				inner := h
				h = func(from netsim.Addr, data []byte) {
					time.Sleep(proverPace)
					inner(from, data)
				}
			}
			return &session.Engine{Handle: h, Progress: r.Expect}
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// awaitProversMidFlight waits until both crash provers have delivered
// at least one payload on server: the premise the crash-seam checks
// rest on.
func awaitProversMidFlight(t *testing.T, server *Node, srv *chaosServer, client netsim.Addr) {
	t.Helper()
	waitFor(t, 10*time.Second, func() bool {
		for _, id := range []byte{28, 29} {
			var expect uint64
			if err := server.Do(id, func() {
				if r := srv.receiver(client, id); r != nil {
					expect = r.Expect()
				}
			}); err != nil || expect == 0 {
				return false
			}
		}
		return true
	})
}

// sessFlow is one client-side session transfer: done closes when its
// sender terminates (or the connect gives up); sender is written on the
// shard loop before done closes, so reads after <-done are ordered.
type sessFlow struct {
	id     byte
	done   chan struct{}
	sender *arq.GBNSender
}

// startSessionFlows launches count session transfers on flows
// base..base+count-1: connect through the cookie handshake, attach a
// go-back-N sender on establish, heartbeat for liveness, FIN when done.
func startSessionFlows(t *testing.T, client *Node, peer netsim.Addr, base, count, perFlow, payloadSize int) []*sessFlow {
	t.Helper()
	acfg := arq.FlowConfig{
		Window: 8, RTO: 20 * time.Millisecond, MaxRetries: 100,
		Adaptive: true, MaxRTO: 100 * time.Millisecond,
	}
	flows := make([]*sessFlow, count)
	for i := 0; i < count; i++ {
		id := byte(base + i)
		f, err := client.Flow(id)
		if err != nil {
			t.Fatal(err)
		}
		sf := &sessFlow{id: id, done: make(chan struct{})}
		payloads := flowPayloads(int(id), perFlow, payloadSize)
		var cerr error
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			attached := false
			var cli *session.Client
			cli, cerr = session.Connect(rt, port, peer, session.ClientConfig{
				RTO: 20 * time.Millisecond, Adaptive: true, MaxRTO: 100 * time.Millisecond,
				MaxRetries: 60,
				// Beats every 100ms keep the gate's liveness sweep fed even
				// while data stalls in RTO backoff; 8 misses means only
				// ~800ms of total darkness (well past the 200ms partition
				// and the 200ms crash window) reads as a dead peer.
				HeartbeatEvery:  100 * time.Millisecond,
				HeartbeatMisses: 8,
				TimeWait:        100 * time.Millisecond,
				OnEstablished: func() {
					if attached {
						return
					}
					attached = true
					s, aerr := arq.AttachGBNSender(rt, cli.DataPort(), peer, acfg,
						payloads, func() { cli.Close(); close(sf.done) })
					if aerr != nil {
						t.Error(aerr)
						close(sf.done)
						return
					}
					sf.sender = s
				},
				OnDown: func(error) {
					if !attached { // connect gave up: no sender to wait on
						close(sf.done)
					}
				},
			})
		}); err != nil {
			t.Fatal(err)
		}
		if cerr != nil {
			t.Fatal(cerr)
		}
		flows[i] = sf
	}
	return flows
}

// TestChaosSoak is the seeded chaos soak behind `make chaos`: 64
// loopback flows through every degradation mode at once — Gilbert-
// Elliott bursty loss and a partition/heal on the client's send path, a
// mid-run server crash and restart on the same port over a shared state
// dir, a panicking served engine, an overloaded shard, and an abandoned
// peer — run under -race in CI. Every transfer rides the session layer:
// cookie handshake in, heartbeat liveness while established, FIN out,
// and snapshot recovery across the crash. It asserts the node *heals*
// instead of stalling: every flow completes with exact payload bytes
// (flows cut down mid-transfer resume at the right seq on the restarted
// server — no stale-ack stalls, no idle-reap crutch), and each defence
// left its fingerprint in the counters (drop_fault, rto_backoffs,
// sheds, panics_recovered, peer_down, flows_resumed). See DESIGN.md
// §13–§14.
//
// Flow map: 0..27 wave 1 (pre-crash), 28..29 crash provers (paced so
// they are provably mid-flight when the server dies, then must resume
// from snapshots), 30..59 wave 2 (post-restart, must complete OK), 60
// panic, 61 overload flood, 62 scripted reap-then-resume, 63 liveness
// echo.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}

	// The chaos plan. Loss and the partition shape the client's send
	// path; the peer_crash window is read back via Crashes() to drive the
	// server kill/restart, exactly as a production chaos harness would.
	sch := &faults.Schedule{
		Seed:    42,
		Gilbert: &faults.GilbertElliott{PGoodBad: 0.04, PBadGood: 0.3, LossBad: 0.85},
		Events: []faults.Event{
			{Kind: faults.Partition, From: 80 * time.Millisecond, Until: 280 * time.Millisecond},
			{Kind: faults.JitterRamp, From: 300 * time.Millisecond, Until: 900 * time.Millisecond, Extra: 2 * time.Millisecond},
			{Kind: faults.PeerCrash, From: 400 * time.Millisecond, Until: 600 * time.Millisecond},
		},
	}
	crash := sch.Crashes()[0]

	// Both incarnations share the state dir (crash recovery) and the
	// cookie secret — a client that established against the first server
	// but lost its ACK-C must be able to finish the round-trip against
	// the second. The gates' sweep gives a live-but-lossy peer 6 beat
	// intervals (900ms) of grace; there is no IdleTimeout, so nothing
	// can reap a flow into a stale-ack stall — a reaped peer's progress
	// is parked and a re-handshake resumes it.
	stateDir := t.TempDir()
	scfg := SessionConfig{
		StateDir:        stateDir,
		HeartbeatEvery:  150 * time.Millisecond,
		HeartbeatMisses: 6,
		Secret:          session.NewSecret(),
	}
	serverCfg := Config{Shards: 4}
	server1, err := Listen("127.0.0.1:0", serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1, err := serveChaosSessions(server1, scfg)
	if err != nil {
		t.Fatal(err)
	}
	serverAddrStr := string(server1.Addr())

	t0 := time.Now()
	client, err := Listen("127.0.0.1:0", Config{Shards: 4, Faults: sch})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(serverAddrStr)
	if err != nil {
		t.Fatal(err)
	}

	const payloadsPerFlow, payloadSize = 100, 256

	// Wave 1 fights bursty loss and the partition; the provers start now
	// too, so the crash is guaranteed to catch them mid-transfer.
	wave1 := startSessionFlows(t, client, peer, 0, 28, payloadsPerFlow, payloadSize)
	provers := startSessionFlows(t, client, peer, 28, 2, proverPayloads, payloadSize)

	// Kill the server at the crash mark, then restart it on the same
	// port over the same state dir after the outage window. The pace
	// only bounds the provers' progress from above; their handshake can
	// land on the partition, so the kill also waits until both have
	// delivered on server1.
	clientAddr := client.Addr()
	time.Sleep(time.Until(t0.Add(crash.From)))
	awaitProversMidFlight(t, server1, srv1, clientAddr)
	killedAt := time.Now()
	if err := server1.Close(); err != nil {
		t.Fatal(err)
	}
	server1Obs := server1.Obs()

	time.Sleep(time.Until(killedAt.Add(crash.Until - crash.From)))
	server2, err := Listen(serverAddrStr, serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	srv2, err := serveChaosSessions(server2, scfg)
	if err != nil {
		t.Fatal(err)
	}
	// The provers were provably mid-flight, so their slots must have
	// survived into the replay before any post-restart traffic.
	if got := server2.Obs().Total(obs.FlowsResumed); got < 2 {
		t.Fatalf("flows_resumed = %d after state replay, want >= 2 (both provers were mid-flight)", got)
	}

	// Wave 2: 30 fresh flows against the restarted server, still under
	// bursty loss. These must all complete OK.
	wave2 := startSessionFlows(t, client, peer, 30, 30, payloadsPerFlow, payloadSize)

	// Establish a session on the rogue flow, then keep poking data at it
	// until a panic is contained (the faulted client path may eat any
	// individual frame). The engine only runs for an established peer —
	// pre-cookie garbage never reaches it.
	establishAux := func(id byte) *Flow {
		f, err := client.Flow(id)
		if err != nil {
			t.Fatal(err)
		}
		est := make(chan struct{})
		var cerr error
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			_, cerr = session.Connect(rt, port, peer, session.ClientConfig{
				RTO: 20 * time.Millisecond, Adaptive: true, MaxRTO: 100 * time.Millisecond,
				MaxRetries: 60, HeartbeatEvery: 100 * time.Millisecond,
				HeartbeatMisses: 1 << 20, // aux sessions must never self-terminate
				OnEstablished:   func() { close(est) },
			})
		}); err != nil {
			t.Fatal(err)
		}
		if cerr != nil {
			t.Fatal(cerr)
		}
		select {
		case <-est:
		case <-time.After(15 * time.Second):
			t.Fatalf("flow %d session never established", id)
		}
		return f
	}
	pokeFlow := establishAux(60)
	waitFor(t, 15*time.Second, func() bool {
		if err := pokeFlow.Do(func(rt netsim.Runtime, port netsim.Port) {
			_ = port.Send(peer, []byte("boom"))
		}); err != nil {
			return false
		}
		time.Sleep(2 * time.Millisecond)
		return server2.Obs().Total(obs.PanicsRecovered) >= 1
	})

	// Flow 62 scripts the reap-then-resume lifecycle at the wire level:
	// handshake, five counted frames, silence until the gate's sweep
	// declares the peer down, then a second handshake that must resume
	// the parked progress — not restart it.
	f62, err := client.Flow(62)
	if err != nil {
		t.Fatal(err)
	}
	var (
		codec62    *session.Codec
		synAckSeen bool
		nonce62    uint32
		cookie62   uint32
	)
	var cerr62 error
	if err := f62.Do(func(rt netsim.Runtime, port netsim.Port) {
		codec62, cerr62 = session.NewCodec()
		if cerr62 != nil {
			return
		}
		port.SetHandler(func(from netsim.Addr, data []byte) {
			if codec62.Classify(data) == session.KindSynAck {
				synAckSeen = true
				nonce62 = codec62.SynAckNonce()
				cookie62 = codec62.SynAckCookie()
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	if cerr62 != nil {
		t.Fatal(cerr62)
	}
	handshake62 := func(nonce uint32) {
		gen0 := srv2.gen62()
		if err := f62.Do(func(rt netsim.Runtime, port netsim.Port) { synAckSeen = false }); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 15*time.Second, func() bool {
			var seen bool
			var n, ck uint32
			if err := f62.Do(func(rt netsim.Runtime, port netsim.Port) {
				_ = port.Send(peer, codec62.AppendSyn(nil, nonce))
				seen, n, ck = synAckSeen, nonce62, cookie62
			}); err != nil {
				return false
			}
			if !seen {
				return false
			}
			if err := f62.Do(func(rt netsim.Runtime, port netsim.Port) {
				_ = port.Send(peer, codec62.AppendAckC(nil, n, ck))
			}); err != nil {
				return false
			}
			return srv2.gen62() > gen0
		})
	}
	send62Until := func(idx byte) {
		want := uint64(idx) + 1
		waitFor(t, 15*time.Second, func() bool {
			if err := f62.Do(func(rt netsim.Runtime, port netsim.Port) {
				_ = port.Send(peer, []byte{idx, 0x5a, 0xa5})
			}); err != nil {
				return false
			}
			var got uint64
			if err := server2.Do(62, func() {
				srv2.mu.Lock()
				e := srv2.e62
				srv2.mu.Unlock()
				if e != nil {
					got = e.expect
				}
			}); err != nil {
				return false
			}
			return got >= want
		})
	}
	handshake62(0x1001)
	for idx := byte(0); idx < 5; idx++ {
		send62Until(idx)
	}
	// Silence. The sweep must reap the peer after 6 missed intervals.
	peerDown0 := server1Obs.Total(obs.PeerDown) + server2.Obs().Total(obs.PeerDown)
	waitFor(t, 15*time.Second, func() bool {
		return server1Obs.Total(obs.PeerDown)+server2.Obs().Total(obs.PeerDown) > peerDown0
	})
	handshake62(0x2002)
	srv2.mu.Lock()
	resume62, resumed62 := srv2.resumes[62], false
	if _, ok := srv2.resumes[62]; ok {
		resumed62 = true
	}
	srv2.mu.Unlock()
	if !resumed62 {
		t.Fatal("flow 62: re-handshake after reap did not take the resume path")
	}
	if resume62 != 5 {
		t.Fatalf("flow 62 resumed at %d, want 5 (the parked progress)", resume62)
	}
	for idx := byte(5); idx < 8; idx++ {
		send62Until(idx)
	}

	// A ghost frame from a raw socket is pre-handshake garbage: the gate
	// must drop it without allocating anything (drop_no_session).
	ghostConn, err := net.Dial("udp", serverAddrStr)
	if err != nil {
		t.Fatal(err)
	}
	defer ghostConn.Close()
	waitFor(t, 15*time.Second, func() bool {
		if _, err := ghostConn.Write([]byte{44, ^byte(44), 0xde, 0xad}); err != nil {
			return false
		}
		time.Sleep(2 * time.Millisecond)
		return server2.Obs().Total(obs.DropNoSession) >= 1
	})

	// Every transfer must complete — including the flows the crash cut
	// down mid-flight, which is the whole point of the snapshot path.
	deadline := time.After(30 * time.Second)
	await := func(label string, done chan struct{}) {
		select {
		case <-done:
		case <-deadline:
			t.Fatalf("%s never terminated", label)
		}
	}
	checkSenders := func(label string, flows []*sessFlow) {
		for _, sf := range flows {
			await(fmt.Sprintf("%s flow %d", label, sf.id), sf.done)
		}
		for _, sf := range flows {
			if sf.sender == nil {
				t.Fatalf("%s flow %d never established a session", label, sf.id)
			}
			var ok bool
			if err := client.Do(sf.id, func() { ok = sf.sender.Result().OK }); err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("%s flow %d sender gave up", label, sf.id)
			}
		}
	}
	checkSenders("wave-1", wave1)
	checkSenders("prover", provers)
	checkSenders("wave-2", wave2)

	// Byte-exact delivery across the crash seam: whatever the first
	// incarnation delivered, the second must continue at exactly that
	// point — one payload stream per flow, no duplicates, no holes.
	for id := 0; id < 30; id++ {
		perFlow := payloadsPerFlow
		if id >= 28 {
			perFlow = proverPayloads
		}
		expected := flowPayloads(id, perFlow, payloadSize)
		var pre, post [][]byte
		if rcv := srv1.receiver(clientAddr, byte(id)); rcv != nil {
			pre = rcv.Delivered() // server1 is closed: its loops are quiesced
		}
		if rcv := srv2.receiver(clientAddr, byte(id)); rcv != nil {
			if err := server2.Do(byte(id), func() { post = rcv.Delivered() }); err != nil {
				t.Fatal(err)
			}
		}
		if len(pre)+len(post) != perFlow {
			t.Fatalf("flow %d: delivered %d+%d across the crash, want %d", id, len(pre), len(post), perFlow)
		}
		for i := range expected {
			var got []byte
			if i < len(pre) {
				got = pre[i]
			} else {
				got = post[i-len(pre)]
			}
			if !bytes.Equal(got, expected[i]) {
				t.Fatalf("flow %d payload %d corrupted across the restart seam", id, i)
			}
		}
	}
	for i := 0; i < len(wave2); i++ {
		id := byte(30 + i)
		rcv := srv2.receiver(clientAddr, id)
		if rcv == nil {
			t.Fatalf("post-restart flow %d: no receiver on server2", id)
		}
		var n int
		if err := server2.Do(id, func() { n = len(rcv.Delivered()) }); err != nil {
			t.Fatal(err)
		}
		if n != payloadsPerFlow {
			t.Fatalf("post-restart flow %d: delivered %d/%d", id, n, payloadsPerFlow)
		}
	}
	// The provers' recorded resume points must equal exactly what the
	// first incarnation delivered — mid-flight, not 0 and not complete.
	for _, id := range []byte{28, 29} {
		rcv := srv1.receiver(clientAddr, id)
		if rcv == nil {
			t.Fatalf("prover flow %d never established against server1", id)
		}
		pre := uint64(len(rcv.Delivered()))
		srv2.mu.Lock()
		r, ok := srv2.resumes[id]
		srv2.mu.Unlock()
		if !ok {
			t.Fatalf("prover flow %d was never resumed on server2", id)
		}
		if r == 0 || r >= proverPayloads {
			t.Errorf("prover flow %d resumed at %d: not mid-flight (want 0 < expect < %d)", id, r, proverPayloads)
		}
		if r != pre {
			t.Errorf("prover flow %d resumed at %d but server1 delivered %d: snapshot and delivery disagree", id, r, pre)
		}
	}

	// Overload: establish a session on the slow flow, then flood it from
	// the client until the shard sheds. Sequenced after the transfer
	// verification because shedding is per shard, not per flow: the
	// flood's shard also owns transfer flows, whose frames its full
	// inbox would shed too, making "every transfer completes" a race
	// against the flood.
	floodFlow := establishAux(61)
	for i := 0; i < 120 && server2.Obs().Total(obs.Sheds) == 0; i++ {
		if err := floodFlow.Do(func(rt netsim.Runtime, port netsim.Port) {
			for j := 0; j < 50; j++ {
				_ = port.Send(peer, []byte{0x51, 0x0, 0x77})
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, func() bool {
		return server2.Obs().Total(obs.Sheds) > 0
	})

	// Liveness: the surviving node still answers on the raw echo flow.
	echoed := make(chan struct{}, 1)
	echoFlow, err := client.Flow(63)
	if err != nil {
		t.Fatal(err)
	}
	if err := echoFlow.Do(func(rt netsim.Runtime, port netsim.Port) {
		port.SetHandler(func(from netsim.Addr, data []byte) {
			select {
			case echoed <- struct{}{}:
			default:
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, func() bool {
		if err := echoFlow.Do(func(rt netsim.Runtime, port netsim.Port) {
			_ = port.Send(peer, []byte("alive?"))
		}); err != nil {
			return false
		}
		select {
		case <-echoed:
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})

	// Every defence fired. Server counters are summed across the
	// incarnations — the crash must not launder them away.
	serverTotal := func(c obs.Counter) uint64 {
		return server1Obs.Total(c) + server2.Obs().Total(c)
	}
	if got := client.Obs().Total(obs.DropFault); got == 0 {
		t.Error("drop_fault = 0: the chaos schedule never dropped a frame")
	}
	if got := client.Obs().Total(obs.RTOBackoffs); got == 0 {
		t.Error("rto_backoffs = 0: no sender backed off across a partition and a crash")
	}
	if got := serverTotal(obs.Sheds); got == 0 {
		t.Error("sheds = 0: overload never shed")
	}
	if got := serverTotal(obs.PanicsRecovered); got == 0 {
		t.Error("panics_recovered = 0: rogue engine panic not contained")
	}
	if got := serverTotal(obs.PeerDown); got == 0 {
		t.Error("peer_down = 0: the abandoned peer was never declared down")
	}
	if got := serverTotal(obs.FlowsResumed); got < 3 {
		t.Errorf("flows_resumed = %d, want >= 3 (two crash provers plus the reaped flow 62)", got)
	}
	// 60 transfer flows plus the three aux sessions complete the cookie
	// round-trip, flow 62 twice. The bound is deliberately slack: under
	// maximal chaos a round-trip can be absorbed rather than counted —
	// an ACKC racing the kill, or a re-handshake satisfied by a stale
	// duplicate SynAck whose cookie is still valid. What the check must
	// catch is laundering: a restart that zeroes the first incarnation's
	// ~30 accepts would fall far below the bound.
	if got := serverTotal(obs.HandshakesOK); got < 60 {
		t.Errorf("handshakes_ok = %d, want >= 60", got)
	}
	if got := serverTotal(obs.DropNoSession); got == 0 {
		t.Error("drop_no_session = 0: pre-handshake garbage was never dropped")
	}
	t.Logf("chaos soak: drop_fault=%d rto_backoffs=%d sheds=%d panics_recovered=%d peer_down=%d flows_resumed=%d handshakes_ok=%d drop_no_session=%d",
		client.Obs().Total(obs.DropFault), client.Obs().Total(obs.RTOBackoffs),
		serverTotal(obs.Sheds), serverTotal(obs.PanicsRecovered),
		serverTotal(obs.PeerDown), serverTotal(obs.FlowsResumed),
		serverTotal(obs.HandshakesOK), serverTotal(obs.DropNoSession))
}
