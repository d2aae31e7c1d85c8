package rtnet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/faults"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// These tests pin the graceful-degradation behaviour of DESIGN.md §13:
// Close cannot race the in-flight sendmmsg flush, Drain finishes
// in-flight transfers before reporting quiescence, engine panics are
// contained to their flow, idle served engines are reaped, and overload
// sheds frames at the shard inbox instead of stalling readers. The
// chaos soak that exercises all of them at once under seeded faults is
// chaos_test.go.

// startGBNFlowsFrom attaches count GBN senders on client towards peer,
// one per flow id in [base, base+count), and returns their senders and
// done channels (indexed from 0).
func startGBNFlowsFrom(t *testing.T, client *Node, peer netsim.Addr, cfg arq.FlowConfig, base, count, payloadsPerFlow, payloadSize int) ([]*arq.GBNSender, []chan struct{}) {
	t.Helper()
	senders := make([]*arq.GBNSender, count)
	dones := make([]chan struct{}, count)
	for i := 0; i < count; i++ {
		i := i
		id := base + i
		f, err := client.Flow(byte(id))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var aerr error
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			senders[i], aerr = arq.AttachGBNSender(rt, port, peer, cfg,
				flowPayloads(id, payloadsPerFlow, payloadSize),
				func() { close(done) })
		}); err != nil {
			t.Fatal(err)
		}
		if aerr != nil {
			t.Fatal(aerr)
		}
		dones[i] = done
	}
	return senders, dones
}

// TestCloseRacesInflightFlush is the regression test for the shutdown
// ordering bug: Close used to close the sockets while shard loops were
// still flushing staged sendmmsg bursts, racing fd teardown against
// in-flight writes. The fix unblocks readers with a past read deadline,
// waits for every shard to run its final flush on a still-open fd, and
// only then closes the sockets. Run under -race with transfers mid
// flight, Close from several goroutines at once must return cleanly.
func TestCloseRacesInflightFlush(t *testing.T) {
	for round := 0; round < 3; round++ {
		server, err := Listen("127.0.0.1:0", Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newGBNServer(server); err != nil {
			t.Fatal(err)
		}
		client, err := Listen("127.0.0.1:0", Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		peer, err := client.Dial(string(server.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		cfg := arq.FlowConfig{Window: 16, RTO: 5 * time.Millisecond, MaxRetries: 1000}
		startGBNFlowsFrom(t, client, peer, cfg, 0, 32, 400, 512)

		// Let the flows saturate the send path, then tear both nodes down
		// mid-transfer from competing goroutines.
		time.Sleep(time.Duration(5+10*round) * time.Millisecond)
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			for _, n := range []*Node{client, server} {
				n := n
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := n.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				}()
			}
		}
		wg.Wait()
		if err := client.Do(0, func() {}); err == nil {
			t.Fatal("Do succeeded on a closed node")
		}
	}
}

// TestDrainFinishesInflightTransfers: Drain must hold the node open
// until in-flight transfers complete — when it reports quiescence every
// sender has finished OK — while frames from *new* peers are refused and
// counted (drop_draining) for the whole lame-duck period.
func TestDrainFinishesInflightTransfers(t *testing.T) {
	// Bursty loss on the client's send path stretches the transfers over
	// many RTO cycles, so Drain genuinely overlaps live retransmission.
	// Fixed 20ms RTO keeps every inter-packet gap under the 60ms
	// drain-quiet window (DESIGN.md §13: flows backed off past it look
	// abandoned).
	sch := &faults.Schedule{
		Seed:    7,
		Gilbert: &faults.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.9},
	}
	server, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	srv, err := newGBNServer(server)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 2, Faults: sch})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	const flows, payloadsPerFlow, payloadSize = 8, 120, 256
	cfg := arq.FlowConfig{Window: 8, RTO: 20 * time.Millisecond, MaxRetries: 500}
	senders, dones := startGBNFlowsFrom(t, client, peer, cfg, 0, flows, payloadsPerFlow, payloadSize)

	// Drain refuses engines for new peers the moment it is called, so a
	// flow whose first frame is still in flight would be locked out and
	// stall forever. Every real deployment has the same constraint —
	// drain after accepting, not during. Wait for all engines to spawn.
	clientAddr := client.Addr()
	waitFor(t, 10*time.Second, func() bool {
		for id := 0; id < flows; id++ {
			if srv.receiver(clientAddr, byte(id)) == nil {
				return false
			}
		}
		return true
	})

	if server.Draining() {
		t.Fatal("node draining before Drain was called")
	}
	if err := server.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !server.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// Quiescence implies completion: every done channel must already be
	// closed, with nothing still waiting on a retransmission timer.
	for id, done := range dones {
		select {
		case <-done:
		default:
			t.Fatalf("flow %d still in flight after Drain reported quiescence", id)
		}
		var ok bool
		if err := client.Do(byte(id), func() { ok = senders[id].Result().OK }); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("flow %d gave up instead of draining cleanly", id)
		}
	}
	for id := 0; id < flows; id++ {
		rcv := srv.receiver(clientAddr, byte(id))
		if rcv == nil {
			t.Fatalf("flow %d: no receiver", id)
		}
		var n int
		if err := server.Do(byte(id), func() { n = len(rcv.Delivered()) }); err != nil {
			t.Fatal(err)
		}
		if n != payloadsPerFlow {
			t.Fatalf("flow %d: delivered %d/%d payloads", id, n, payloadsPerFlow)
		}
	}

	// Lame duck: a frame from a never-seen peer must not spawn an engine.
	before := server.Obs().Total(obs.DropDraining)
	c, err := net.Dial("udp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{0x02, ^byte(0x02), 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return server.Obs().Total(obs.DropDraining) > before
	})
}

// TestPanicIsolationContainsEngine: a panicking served engine loses its
// own frames but cannot take down the shard loop — flows sharing the
// shard keep working, each containment is counted, and a panic inside a
// Do'd function still releases the waiter.
func TestPanicIsolationContainsEngine(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		if flow == 3 {
			return func(from netsim.Addr, data []byte) { panic("engine bug") }
		}
		return func(from netsim.Addr, data []byte) { _ = port.Send(from, data) }
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}

	poison, err := client.Flow(3)
	if err != nil {
		t.Fatal(err)
	}
	echoFlow, err := client.Flow(5)
	if err != nil {
		t.Fatal(err)
	}
	echoed := make(chan struct{}, 8)
	if err := echoFlow.Do(func(rt netsim.Runtime, port netsim.Port) {
		port.SetHandler(func(from netsim.Addr, data []byte) { echoed <- struct{}{} })
	}); err != nil {
		t.Fatal(err)
	}
	ping := func(f *Flow) {
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			_ = port.Send(peer, []byte("x"))
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Poison the shard, then prove the flow sharing it still echoes. Both
	// flows map to shard 0 (Shards: 1), so the echo passing through after
	// the panic is the isolation proof, not an accident of sharding.
	ping(poison)
	waitFor(t, 5*time.Second, func() bool {
		return server.Obs().Total(obs.PanicsRecovered) >= 1
	})
	ping(echoFlow)
	select {
	case <-echoed:
	case <-time.After(5 * time.Second):
		t.Fatal("echo flow dead after a sibling engine panicked")
	}
	// Panics repeat (the engine is broken, not removed): every frame to
	// the poisoned flow is one more contained panic, never an escape.
	ping(poison)
	waitFor(t, 5*time.Second, func() bool {
		return server.Obs().Total(obs.PanicsRecovered) >= 2
	})

	// A panic inside a Do'd function must still release the waiter (the
	// done close is deferred past the recovery).
	if err := client.Do(9, func() { panic("do bug") }); err != nil {
		t.Fatalf("Do returned %v for a contained panic", err)
	}
	if got := client.Obs().Total(obs.PanicsRecovered); got < 1 {
		t.Fatalf("client panics_recovered = %d after a panicking Do", got)
	}
	// And a panic in a timer callback.
	f, err := client.Flow(11)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		rt.After(time.Millisecond, func() { panic("timer bug") })
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return client.Obs().Total(obs.PanicsRecovered) >= 2
	})
}

// TestIdleExpiryReapsAbandonedPeers: a served engine that stops hearing
// from its peer for IdleTimeout is dropped (flows_expired) and a
// returning peer gets a fresh engine, not the stale one.
func TestIdleExpiryReapsAbandonedPeers(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1, IdleTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	var spawned atomic.Int64
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		spawned.Add(1)
		return func(from netsim.Addr, data []byte) {}
	})
	if err != nil {
		t.Fatal(err)
	}

	// One frame from one source, then silence: the engine must be reaped.
	c, err := net.Dial("udp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := []byte{0x01, ^byte(0x01), 0xca, 0xfe}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return spawned.Load() == 1 })
	waitFor(t, 5*time.Second, func() bool {
		return server.Obs().Total(obs.FlowsExpired) >= 1
	})
	// The same source returning after expiry is a new contact: a second
	// engine spawn, proving the peer table entry really went away.
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return spawned.Load() == 2 })
}

// TestOverloadTailDropsNotReader: flooding a shard whose engine is slow
// must shed the frames that arrive at its full inbox (counted) rather
// than stall the reader, and the node must stay fully responsive for
// other work afterwards.
func TestOverloadTailDropsNotReader(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		if flow == 1 {
			// Pathologically slow engine: each frame pins the shard loop
			// long enough for the reader to fill the inbox's
			// inboxFactor × Batch frames.
			return func(from netsim.Addr, data []byte) { time.Sleep(2 * time.Millisecond) }
		}
		return func(from netsim.Addr, data []byte) { _ = port.Send(from, data) }
	})
	if err != nil {
		t.Fatal(err)
	}

	c, err := net.Dial("udp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := []byte{0x01, ^byte(0x01), 0xfe, 0xed}
	for i := 0; i < 2000; i++ {
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		if server.Obs().Total(obs.Sheds) > 0 && i > 200 {
			break
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		return server.Obs().Total(obs.Sheds) > 0
	})
	// The reader survived the overload: the node still answers on another
	// flow once the backlog clears.
	echoed := make(chan struct{}, 1)
	client, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := client.Flow(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
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
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
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
}

// TestInboxBoundedInFramesNotWakeups: a shard parked inside Node.Do
// while its reader wakes once per datagram must find every frame
// waiting when it resumes. The inbox is bounded in frames (inboxFactor
// × Batch), not in reader wakeups, so sixteen one-frame wakeups — four
// times the depth of a four-batch queue, far fewer frames than the
// bound — shed nothing.
func TestInboxBoundedInFramesNotWakeups(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	var got atomic.Int32
	if err := server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(netsim.Addr, []byte) { got.Add(1) }
	}); err != nil {
		t.Fatal(err)
	}

	parked, release := make(chan struct{}), make(chan struct{})
	doErr := make(chan error, 1)
	go func() { doErr <- server.Do(1, func() { close(parked); <-release }) }()
	<-parked

	c, err := net.Dial("udp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames = 16
	for i := 0; i < frames; i++ {
		if _, err := c.Write([]byte{0x01, ^byte(0x01), byte(i)}); err != nil {
			t.Fatal(err)
		}
		// Let the reader take each datagram in its own wakeup.
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	if err := <-doErr; err != nil {
		t.Fatal(err)
	}
	sheds := func() uint64 { return server.Obs().Total(obs.Sheds) }
	waitFor(t, 5*time.Second, func() bool { return uint64(got.Load())+sheds() >= frames })
	if n := sheds(); n != 0 || got.Load() != frames {
		t.Fatalf("%d of %d frames queued behind a parked shard delivered, %d shed; want all delivered, 0 shed", got.Load(), frames, n)
	}
}
