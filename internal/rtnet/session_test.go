package rtnet

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/session"
)

// sessionServer tracks per-(peer,flow) receivers spawned through the
// cookie handshake, the lifecycle analog of gbnServer.
type sessionServer struct {
	mu    sync.Mutex
	recvs map[recvKey]*arq.WindowReceiver
}

func serveSessions(node *Node, cfg SessionConfig) (*sessionServer, error) {
	s := &sessionServer{recvs: make(map[recvKey]*arq.WindowReceiver)}
	err := node.ServeSession(cfg, func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte, resume *session.Resume) *session.Engine {
		r, err := arq.NewGBNReceiver(port, peer)
		if err != nil {
			return nil
		}
		if resume != nil {
			r.SeedExpect(resume.Expect)
		}
		s.mu.Lock()
		s.recvs[recvKey{peer, flow}] = r
		s.mu.Unlock()
		return &session.Engine{Handle: r.OnDatagram, Progress: r.Expect}
	})
	return s, err
}

func (s *sessionServer) receiver(peer netsim.Addr, flow byte) *arq.WindowReceiver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recvs[recvKey{peer, flow}]
}

// connectAndSend establishes a session on the client flow and attaches
// a go-back-N sender to its data port once the handshake completes. The
// returned channel closes when the client reaches Down (clean teardown
// or declared failure); inspect *senderOut and cli.Err() afterwards.
func connectAndSend(t *testing.T, f *Flow, peer netsim.Addr, payloads [][]byte, senderOut **arq.WindowSender) (*session.Client, chan struct{}) {
	t.Helper()
	down := make(chan struct{})
	var cli *session.Client
	var cerr error
	acfg := arq.FlowConfig{Window: 8, RTO: 50 * time.Millisecond, MaxRetries: 40}
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		cli, cerr = session.Connect(rt, port, peer, session.ClientConfig{
			RTO:            50 * time.Millisecond,
			MaxRetries:     20,
			HeartbeatEvery: 100 * time.Millisecond,
			OnEstablished: func() {
				// Runs later, inside the shard loop; the test reads
				// *senderOut only after `down` closes (happens-after).
				s, aerr := arq.AttachGBNSender(rt, cli.DataPort(), peer, acfg,
					payloads, func() { cli.Close() })
				if aerr != nil {
					t.Error(aerr)
					return
				}
				*senderOut = s
			},
			OnDown: func(error) { close(down) },
		})
	}); err != nil {
		t.Fatal(err)
	}
	if cerr != nil {
		t.Fatal(cerr)
	}
	return cli, down
}

// TestServeSessionEndToEnd drives the full connection lifecycle over
// real loopback UDP: stateless-cookie handshake, heartbeat liveness
// during a go-back-N transfer, and FIN/FIN-ACK teardown, with every
// lifecycle counter accounted for.
func TestServeSessionEndToEnd(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	srv, err := serveSessions(server, SessionConfig{HeartbeatEvery: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := client.Flow(5)
	if err != nil {
		t.Fatal(err)
	}
	payloads := flowPayloads(5, 20, 256)
	var sender *arq.WindowSender
	cli, down := connectAndSend(t, f, peer, payloads, &sender)

	select {
	case <-down:
	case <-time.After(20 * time.Second):
		t.Fatal("session never reached Down")
	}
	var cliErr error
	if err := client.Do(5, func() { cliErr = cli.Err() }); err != nil {
		t.Fatal(err)
	}
	if cliErr != nil {
		t.Fatalf("session ended with error: %v", cliErr)
	}
	if !sender.Result().OK {
		t.Fatal("sender gave up")
	}
	rcv := srv.receiver(client.Addr(), 5)
	if rcv == nil {
		t.Fatal("handshake never spawned a receiver")
	}
	var delivered [][]byte
	if err := server.Do(5, func() { delivered = rcv.Delivered() }); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != len(payloads) {
		t.Fatalf("delivered %d/%d payloads", len(delivered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(delivered[i], payloads[i]) {
			t.Fatalf("payload %d content mismatch", i)
		}
	}
	if got := server.Obs().Total(obs.HandshakesOK); got != 1 {
		t.Errorf("handshakes_ok = %d, want 1", got)
	}
	if got := server.Obs().Total(obs.PeerDown); got != 0 {
		t.Errorf("peer_down = %d, want 0 (clean teardown)", got)
	}
}

// TestServeSessionRestartResume is the crash-recovery acceptance test:
// a transfer is interrupted by killing the server node mid-flight, a
// fresh node on the same port replays the state dir, and the transfer
// completes with every payload intact — the client re-entering through
// the snapshot path (flows_resumed), not a fresh handshake, and never
// stalling on stale acks.
func TestServeSessionRestartResume(t *testing.T) {
	dir := t.TempDir()
	scfg := SessionConfig{StateDir: dir, HeartbeatEvery: 100 * time.Millisecond}
	server, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	addr := string(server.Addr())
	srv1, err := serveSessions(server, scfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	f, err := client.Flow(5)
	if err != nil {
		t.Fatal(err)
	}
	// Enough payloads that the transfer is still mid-flight when the
	// plug is pulled — a short stream would finish and tear down cleanly
	// (dropping its state slot) before the crash lands.
	payloads := flowPayloads(5, 2000, 256)
	var sender *arq.WindowSender
	_, down := connectAndSend(t, f, peer, payloads, &sender)

	// Let the transfer make real progress, then pull the plug.
	waitFor(t, 10*time.Second, func() bool {
		rcv := srv1.receiver(client.Addr(), 5)
		if rcv == nil {
			return false
		}
		var expect uint64
		if err := server.Do(5, func() { expect = rcv.Expect() }); err != nil {
			return false
		}
		return expect >= 5
	})
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same port over the same state dir.
	server2, err := Listen(addr, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer server2.Close()
	srv2, err := serveSessions(server2, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := server2.Obs().Total(obs.FlowsResumed); got != 1 {
		t.Fatalf("flows_resumed = %d after replay, want 1", got)
	}

	select {
	case <-down:
	case <-time.After(20 * time.Second):
		t.Fatal("transfer did not complete after restart")
	}
	if !sender.Result().OK {
		t.Fatal("sender gave up after restart")
	}
	rcv1 := srv1.receiver(client.Addr(), 5)
	rcv2 := srv2.receiver(client.Addr(), 5)
	if rcv2 == nil {
		t.Fatal("restarted server never resumed the session")
	}
	// The pre-crash receiver delivered a prefix; the resumed one was
	// seeded at exactly that point and delivered the rest. Together they
	// must reconstruct the payload stream byte for byte — the resumed
	// receiver starting anywhere else would duplicate or hole the seam.
	var delivered [][]byte
	if err := server2.Do(5, func() { delivered = rcv2.Delivered() }); err != nil {
		t.Fatal(err)
	}
	pre := rcv1.Delivered() // server1 is closed: its loop is quiesced
	total := append(append([][]byte{}, pre...), delivered...)
	if len(total) != len(payloads) {
		t.Fatalf("delivered %d+%d payloads across restart, want %d", len(pre), len(delivered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(total[i], payloads[i]) {
			t.Fatalf("payload %d corrupted across the restart seam", i)
		}
	}
	if got := server2.Obs().Total(obs.HandshakesOK); got != 0 {
		t.Errorf("handshakes_ok = %d on restarted node, want 0 (resume, not re-handshake)", got)
	}
}

// TestServeSessionDrainRefusesHandshakes: a draining node answers no
// new SYNs (drop_draining) while an established session keeps running.
func TestServeSessionDrainRefusesHandshakes(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if _, err := serveSessions(server, SessionConfig{HeartbeatEvery: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	server.draining.Store(true)
	client, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := client.Flow(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		_, cerr := session.Connect(rt, port, peer, session.ClientConfig{
			RTO: 20 * time.Millisecond, MaxRetries: 3,
		})
		if cerr != nil {
			t.Error(cerr)
		}
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return server.Obs().Total(obs.DropDraining) >= 1
	})
	if got := server.Obs().Total(obs.HandshakesOK); got != 0 {
		t.Errorf("handshakes_ok = %d on a draining node, want 0", got)
	}
}
