package session

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// advance runs the simulation d further (Sim.Run takes absolute time).
func advance(sim *netsim.Sim, d time.Duration) { sim.Run(sim.Now() + d) }

func testPayloads(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i + j)
		}
		out[i] = p
	}
	return out
}

func TestCodecRoundTripAndClassify(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind Kind
		enc  func() []byte
	}{
		{KindSyn, func() []byte { return c.AppendSyn(nil, 0xdeadbeef) }},
		{KindSynAck, func() []byte { return c.AppendSynAck(nil, 7, 8) }},
		{KindAckC, func() []byte { return c.AppendAckC(nil, 7, 8) }},
		{KindFin, func() []byte { return c.AppendFin(nil) }},
		{KindFinAck, func() []byte { return c.AppendFinAck(nil) }},
		{KindBeat, func() []byte { return c.AppendBeat(nil, 41) }},
		{KindBeatAck, func() []byte { return c.AppendBeatAck(nil, 41) }},
	}
	for _, tc := range cases {
		enc := tc.enc()
		if len(enc) != c.ControlSize(tc.kind) {
			t.Errorf("%v: len = %d, want %d", tc.kind, len(enc), c.ControlSize(tc.kind))
		}
		if got := c.Classify(enc); got != tc.kind {
			t.Errorf("Classify(%v frame) = %v", tc.kind, got)
		}
		// A flipped payload byte must fail the sum8 trailer and fall
		// through to the data path.
		bad := bytes.Clone(enc)
		bad[len(bad)-2] ^= 0x55
		if got := c.Classify(bad); got != 0 {
			t.Errorf("corrupt %v classified as %v", tc.kind, got)
		}
		// Truncation changes the exact fixed length: data path.
		if got := c.Classify(enc[:len(enc)-1]); got != 0 {
			t.Errorf("truncated %v classified as %v", tc.kind, got)
		}
	}
	if c.Classify([]byte{Magic, 99, 0}) != 0 {
		t.Error("unknown kind classified as control")
	}
	if c.Classify([]byte{1, 2, 3, 4}) != 0 {
		t.Error("non-magic frame classified as control")
	}
	c.AppendSyn(nil, 5)
	if c.Classify(c.AppendSynAck(nil, 5, 99)) != KindSynAck {
		t.Fatal("classify")
	}
	if c.SynAckNonce() != 5 || c.SynAckCookie() != 99 {
		t.Errorf("synack fields = %d/%d", c.SynAckNonce(), c.SynAckCookie())
	}
}

// twoNodeSim wires a client endpoint and a server endpoint with the
// given link, a gate on the server side, and returns both.
func twoNodeSim(t *testing.T, seed int64, link netsim.LinkParams, gcfg GateConfig) (*netsim.Sim, *netsim.Endpoint, *netsim.Endpoint, *Gate) {
	t.Helper()
	sim := netsim.New(seed)
	cEP, err := sim.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	sEP, err := sim.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	sim.Connect(cEP, sEP, link)
	gate, err := NewGate(sim, sEP, 7, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, cEP, sEP, gate
}

func TestHandshakeTransferTeardown(t *testing.T) {
	for _, loss := range []float64{0, 0.2} {
		var recv *arq.GBNReceiver
		gcfg := GateConfig{
			HeartbeatEvery: 50 * time.Millisecond,
			Accept: func(peer netsim.Addr, resume *Resume) *Engine {
				return nil // replaced below once ports exist
			},
		}
		sim, cEP, sEP, gate := twoNodeSim(t, 11, netsim.LinkParams{Delay: time.Millisecond, LossProb: loss}, gcfg)
		gate.cfg.Accept = func(peer netsim.Addr, resume *Resume) *Engine {
			r, err := arq.NewGBNReceiver(sEP, peer)
			if err != nil {
				t.Fatal(err)
			}
			if resume != nil {
				r.SeedExpect(resume.Expect)
			}
			recv = r
			return &Engine{Handle: r.OnDatagram, Progress: r.Expect}
		}

		payloads := testPayloads(12, 32)
		var sender *arq.GBNSender
		var cli *Client
		done := false
		cfg := ClientConfig{
			Nonce:           77,
			RTO:             30 * time.Millisecond,
			HeartbeatEvery:  50 * time.Millisecond,
			HeartbeatMisses: 5,
			TimeWait:        100 * time.Millisecond,
		}
		cfg.OnEstablished = func() {
			s, err := arq.AttachGBNSender(sim, cli.DataPort(), sEP.Addr(), arq.FlowConfig{
				Window: 4, RTO: 30 * time.Millisecond, MaxRetries: 50,
			}, payloads, func() { cli.Close() })
			if err != nil {
				t.Fatal(err)
			}
			sender = s
		}
		cfg.OnDown = func(err error) { done = true }
		var err error
		cli, err = Connect(sim, cEP, sEP.Addr(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		advance(sim, 20*time.Second)

		if sender == nil || !sender.Result().OK {
			t.Fatalf("loss=%v: transfer did not complete", loss)
		}
		if !done || cli.Err() != nil || cli.State() != "Down" {
			t.Fatalf("loss=%v: client state=%s done=%v err=%v", loss, cli.State(), done, cli.Err())
		}
		got := recv.Delivered()
		if len(got) != len(payloads) {
			t.Fatalf("loss=%v: delivered %d/%d payloads", loss, len(got), len(payloads))
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("loss=%v: payload %d mismatch", loss, i)
			}
		}
		if gate.Peers() != 0 {
			t.Errorf("loss=%v: gate still holds %d peers after teardown", loss, gate.Peers())
		}
		sh := obs.Of(sim)
		if sh.Get(obs.HandshakesOK) < 2 { // client and server count one each
			t.Errorf("loss=%v: handshakes_ok = %d", loss, sh.Get(obs.HandshakesOK))
		}
	}
}

// dropFirstAckC is a client port that loses the first ACK-C it sends.
type dropFirstAckC struct {
	netsim.Port
	codec   *Codec
	dropped bool
}

func (p *dropFirstAckC) Send(to netsim.Addr, data []byte) error {
	if !p.dropped && p.codec.Classify(data) == KindAckC {
		p.dropped = true
		return nil
	}
	return p.Port.Send(to, data)
}

// TestLostAckCRetriedOnRTO: the server drops every data frame from a
// peer whose ACK-C it never saw, so a lost ACK-C must be re-sent on the
// RTO clock, not on the (here 1 s) heartbeat tick. The first payload
// lands within 3 × RTO.
func TestLostAckCRetriedOnRTO(t *testing.T) {
	const rto = 30 * time.Millisecond
	var recv *arq.GBNReceiver
	firstAt := time.Duration(-1)
	sim, cEP, sEP, gate := twoNodeSim(t, 5, netsim.LinkParams{Delay: time.Millisecond}, GateConfig{
		Accept: func(peer netsim.Addr, resume *Resume) *Engine { return nil },
	})
	gate.cfg.Accept = func(peer netsim.Addr, resume *Resume) *Engine {
		r, err := arq.NewGBNReceiver(sEP, peer)
		if err != nil {
			t.Fatal(err)
		}
		recv = r
		return &Engine{Handle: func(from netsim.Addr, data []byte) {
			r.OnDatagram(from, data)
			if firstAt < 0 && len(r.Delivered()) > 0 {
				firstAt = sim.Now()
			}
		}, Progress: r.Expect}
	}
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	port := &dropFirstAckC{Port: cEP, codec: codec}
	payloads := testPayloads(4, 32)
	var cli *Client
	var sender *arq.GBNSender
	cli, err = Connect(sim, port, sEP.Addr(), ClientConfig{
		RTO:            rto,
		HeartbeatEvery: time.Second,
		OnEstablished: func() {
			var aerr error
			sender, aerr = arq.AttachGBNSender(sim, cli.DataPort(), sEP.Addr(), arq.FlowConfig{
				Window: 4, RTO: 10 * time.Millisecond, MaxRetries: 50,
			}, payloads, func() { cli.Close() })
			if aerr != nil {
				t.Fatal(aerr)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	advance(sim, 3*rto)
	if !port.dropped {
		t.Fatal("the first ACK-C was never sent")
	}
	if firstAt < 0 {
		t.Fatalf("no payload delivered within 3 × RTO (%v) of a lost ACK-C", 3*rto)
	}
	advance(sim, 5*time.Second)
	if sender == nil || !sender.Result().OK || len(recv.Delivered()) != len(payloads) {
		t.Fatal("transfer did not complete after the ACK-C retry")
	}
	if cli.Err() != nil || cli.State() != "Down" {
		t.Fatalf("client state=%s err=%v after close", cli.State(), cli.Err())
	}
}

func TestServerStatelessBeforeCookie(t *testing.T) {
	accepts := 0
	sim, cEP, sEP, gate := twoNodeSim(t, 3, netsim.LinkParams{Delay: time.Millisecond}, GateConfig{
		Accept: func(peer netsim.Addr, resume *Resume) *Engine {
			accepts++
			return &Engine{Handle: func(netsim.Addr, []byte) {}}
		},
	})
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	// A SYN flood allocates nothing.
	var buf []byte
	for i := 0; i < 50; i++ {
		buf = codec.AppendSyn(buf[:0], uint32(i))
		if err := cEP.Send(sEP.Addr(), buf); err != nil {
			t.Fatal(err)
		}
	}
	advance(sim, time.Second)
	if gate.Peers() != 0 || accepts != 0 {
		t.Fatalf("SYN flood allocated state: peers=%d accepts=%d", gate.Peers(), accepts)
	}

	// A guessed cookie is rejected and counted; data without a session
	// is dropped and counted.
	sh := obs.Of(sim)
	buf = codec.AppendAckC(buf[:0], 9, 12345)
	if err := cEP.Send(sEP.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	if err := cEP.Send(sEP.Addr(), []byte("not a control frame")); err != nil {
		t.Fatal(err)
	}
	advance(sim, time.Second)
	if gate.Peers() != 0 || accepts != 0 {
		t.Fatalf("forged ACK-C allocated state: peers=%d accepts=%d", gate.Peers(), accepts)
	}
	if got := sh.Get(obs.CookiesRejected); got != 1 {
		t.Errorf("cookies_rejected = %d, want 1", got)
	}
	if got := sh.Get(obs.DropNoSession); got == 0 {
		t.Error("sessionless data not counted as drop_no_session")
	}
}

// scriptedClient completes the cookie round-trip by hand so tests can
// control exactly what happens afterwards (e.g. going silent).
type scriptedClient struct {
	codec *Codec
	ep    *netsim.Endpoint
	srv   netsim.Addr
	buf   []byte
	acked bool
}

func newScriptedClient(t *testing.T, ep *netsim.Endpoint, srv netsim.Addr) *scriptedClient {
	t.Helper()
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	sc := &scriptedClient{codec: codec, ep: ep, srv: srv}
	ep.SetHandler(func(from netsim.Addr, data []byte) {
		if sc.codec.Classify(data) == KindSynAck && !sc.acked {
			sc.acked = true
			sc.buf = sc.codec.AppendAckC(sc.buf[:0], sc.codec.SynAckNonce(), sc.codec.SynAckCookie())
			_ = sc.ep.Send(sc.srv, sc.buf)
		}
	})
	return sc
}

func (sc *scriptedClient) syn(nonce uint32) {
	sc.buf = sc.codec.AppendSyn(sc.buf[:0], nonce)
	_ = sc.ep.Send(sc.srv, sc.buf)
}

func TestSweepReapsSilentPeerAndResumes(t *testing.T) {
	var resumed *Resume
	progress := uint64(0)
	accepts := 0
	sim, cEP, sEP, gate := twoNodeSim(t, 5, netsim.LinkParams{Delay: time.Millisecond}, GateConfig{
		HeartbeatEvery:  20 * time.Millisecond,
		HeartbeatMisses: 3,
		Accept: func(peer netsim.Addr, resume *Resume) *Engine {
			accepts++
			resumed = resume
			return &Engine{
				Handle:   func(netsim.Addr, []byte) { progress++ },
				Progress: func() uint64 { return progress },
			}
		},
	})
	sc := newScriptedClient(t, cEP, sEP.Addr())
	sc.syn(1)
	advance(sim, 50*time.Millisecond)
	if gate.Peers() != 1 || accepts != 1 || resumed != nil {
		t.Fatalf("handshake: peers=%d accepts=%d resumed=%v", gate.Peers(), accepts, resumed)
	}
	// Some data, then silence: the sweep must reap the peer.
	_ = cEP.Send(sEP.Addr(), []byte("payload-1"))
	_ = cEP.Send(sEP.Addr(), []byte("payload-2"))
	advance(sim, 500*time.Millisecond)
	sh := obs.Of(sim)
	if gate.Peers() != 0 {
		t.Fatalf("silent peer not reaped: peers=%d", gate.Peers())
	}
	if got := sh.Get(obs.PeerDown); got != 1 {
		t.Errorf("peer_down = %d, want 1", got)
	}
	// Recontact: the re-handshake resumes at the parked progress
	// instead of restarting from zero.
	sc.acked = false
	sc.syn(2)
	advance(sim, 30*time.Millisecond) // under the 3×20ms reap cutoff
	if gate.Peers() != 1 || accepts != 2 {
		t.Fatalf("re-handshake failed: peers=%d accepts=%d", gate.Peers(), accepts)
	}
	if resumed == nil || resumed.Expect != 2 {
		t.Fatalf("resume = %+v, want Expect=2", resumed)
	}
	if got := sh.Get(obs.FlowsResumed); got != 1 {
		t.Errorf("flows_resumed = %d, want 1", got)
	}
}

func TestClientDeclaresPeerDown(t *testing.T) {
	var peerDown, downErr = false, error(nil)
	sim, cEP, sEP, gate := twoNodeSim(t, 9, netsim.LinkParams{Delay: time.Millisecond}, GateConfig{
		HeartbeatEvery: 10 * time.Second, // server sweep out of the picture
		Accept: func(peer netsim.Addr, resume *Resume) *Engine {
			return &Engine{Handle: func(netsim.Addr, []byte) {}}
		},
	})
	cli, err := Connect(sim, cEP, sEP.Addr(), ClientConfig{
		RTO:             20 * time.Millisecond,
		HeartbeatEvery:  30 * time.Millisecond,
		HeartbeatMisses: 3,
		OnEstablished: func() {
			gate.Close() // server goes dark after the handshake
		},
		OnPeerDown: func() { peerDown = true },
		OnDown:     func(err error) { downErr = err },
	})
	if err != nil {
		t.Fatal(err)
	}
	advance(sim, 2*time.Second)
	if !peerDown || downErr != ErrPeerDown || !cli.Done() {
		t.Fatalf("peerDown=%v err=%v done=%v", peerDown, downErr, cli.Done())
	}
	if got := obs.Of(sim).Get(obs.PeerDown); got == 0 {
		t.Error("peer_down counter never moved")
	}
	if cli.BeatsSent() == 0 {
		t.Error("no heartbeats were sent")
	}
}

func TestConnectGivesUp(t *testing.T) {
	sim := netsim.New(1)
	cEP, err := sim.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	sEP, err := sim.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	sim.Connect(cEP, sEP, netsim.LinkParams{Delay: time.Millisecond, LossProb: 1.0})
	var downErr error
	cli, err := Connect(sim, cEP, sEP.Addr(), ClientConfig{
		RTO: 5 * time.Millisecond, MaxRetries: 3,
		OnDown: func(err error) { downErr = err },
	})
	if err != nil {
		t.Fatal(err)
	}
	advance(sim, 5*time.Second)
	if downErr != ErrConnectTimeout || !cli.Done() || cli.State() != "Down" {
		t.Fatalf("err=%v done=%v state=%s", downErr, cli.Done(), cli.State())
	}
}

func TestTimeWaitAbsorbsStaleControl(t *testing.T) {
	gcfg := GateConfig{
		HeartbeatEvery: 10 * time.Second,
		Accept: func(peer netsim.Addr, resume *Resume) *Engine {
			return &Engine{Handle: func(netsim.Addr, []byte) {}}
		},
	}
	sim, cEP, sEP, _ := twoNodeSim(t, 21, netsim.LinkParams{Delay: time.Millisecond}, gcfg)
	var cli *Client
	cfg := ClientConfig{
		RTO:      20 * time.Millisecond,
		TimeWait: 300 * time.Millisecond,
	}
	cfg.OnEstablished = func() { cli.Close() }
	var err error
	cli, err = Connect(sim, cEP, sEP.Addr(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	advance(sim, 100*time.Millisecond)
	if cli.State() != "TimeWait" {
		t.Fatalf("state = %s, want TimeWait", cli.State())
	}
	// Stale control frames land in TIME_WAIT and are absorbed.
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	_ = sEP.Send(cEP.Addr(), codec.AppendFinAck(nil))
	_ = sEP.Send(cEP.Addr(), codec.AppendSynAck(nil, 1, 2))
	advance(sim, 100*time.Millisecond)
	if got := obs.Of(sim).Get(obs.TimewaitAbsorbed); got != 2 {
		t.Errorf("timewait_absorbed = %d, want 2", got)
	}
	if cli.State() != "TimeWait" {
		t.Errorf("stale control moved the machine to %s", cli.State())
	}
	advance(sim, time.Second)
	if cli.State() != "Down" || !cli.Done() || cli.Err() != nil {
		t.Errorf("after expire: state=%s done=%v err=%v", cli.State(), cli.Done(), cli.Err())
	}
}

func TestStoreRoundTripAndRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	mach := []byte{1, 2, 3, 4}
	st.Append(7, "peer-a", 5, mach)
	st.Append(7, "peer-a", 9, mach) // last record wins
	st.Append(7, "peer-b", 3, mach) //
	st.Append(9, "peer-a", 2, mach) // distinct flow, same peer
	st.AppendDrop(7, "peer-b")      // clean teardown clears the slot
	if st.Err() != nil {
		t.Fatal(st.Err())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %v", recs)
	}
	if r := recs[Key{7, "peer-a"}]; r.Expect != 9 || !bytes.Equal(r.Mach, mach) {
		t.Errorf("slot 7/peer-a = %+v", r)
	}
	if r := recs[Key{9, "peer-a"}]; r.Expect != 2 {
		t.Errorf("slot 9/peer-a = %+v", r)
	}

	// A torn tail (crash mid-append) must not lose the earlier records.
	data, err := os.ReadFile(StoreFile(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(StoreFile(dir, 0), data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err = LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The torn record was the drop for peer-b, so peer-b survives.
	if len(recs) != 3 {
		t.Fatalf("after tear: recs = %v", recs)
	}

	// An empty or missing dir is an empty state.
	if recs, err := LoadDir(filepath.Join(dir, "missing")); err != nil || len(recs) != 0 {
		t.Fatalf("missing dir: %v %v", recs, err)
	}
}

func TestGateSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	progress := uint64(0)
	mkAccept := func(counter *uint64, got **Resume) AcceptFunc {
		return func(peer netsim.Addr, resume *Resume) *Engine {
			if got != nil {
				*got = resume
			}
			if resume != nil {
				*counter = resume.Expect
			}
			return &Engine{
				Handle:   func(netsim.Addr, []byte) { *counter++ },
				Progress: func() uint64 { return *counter },
			}
		}
	}
	sim, cEP, sEP, _ := twoNodeSim(t, 31, netsim.LinkParams{Delay: time.Millisecond}, GateConfig{
		HeartbeatEvery: 10 * time.Second,
		Store:          st,
		Accept:         mkAccept(&progress, nil),
	})
	sc := newScriptedClient(t, cEP, sEP.Addr())
	sc.syn(4)
	advance(sim, 50*time.Millisecond)
	for i := 0; i < 5; i++ {
		_ = cEP.Send(sEP.Addr(), []byte("data"))
	}
	advance(sim, 50*time.Millisecond)
	if progress != 5 {
		t.Fatalf("progress = %d", progress)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new sim, gate and store over the same directory.
	recs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("recovered %d slots", len(recs))
	}
	st2, err := NewStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	progress2 := uint64(0)
	var resumed *Resume
	sim2 := netsim.New(32)
	c2, err := sim2.NewEndpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sim2.NewEndpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	sim2.Connect(c2, s2, netsim.LinkParams{Delay: time.Millisecond})
	gate2, err := NewGate(sim2, s2, 7, GateConfig{
		HeartbeatEvery: 10 * time.Second,
		Store:          st2,
		Accept:         mkAccept(&progress2, &resumed),
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, rec := range recs {
		if key.Flow != gate2.Flow() {
			continue
		}
		if !gate2.Restore(key.Peer, rec) {
			t.Fatalf("restore of %v failed", key)
		}
	}
	if gate2.Peers() != 1 || resumed == nil || resumed.Expect != 5 {
		t.Fatalf("peers=%d resumed=%+v", gate2.Peers(), resumed)
	}
	if got := obs.Of(sim2).Get(obs.FlowsResumed); got != 1 {
		t.Errorf("flows_resumed = %d", got)
	}
	// The resumed engine keeps serving data without a handshake.
	_ = c2.Send(s2.Addr(), []byte("more"))
	advance(sim2, 50*time.Millisecond)
	if progress2 != 6 {
		t.Errorf("post-restore progress = %d, want 6", progress2)
	}
}
