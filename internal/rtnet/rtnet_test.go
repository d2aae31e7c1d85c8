package rtnet

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/harness"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// flowPayloads builds distinct per-flow payloads so cross-flow mixups
// cannot cancel out — the same generator the simulated harness and the
// protosim client use.
func flowPayloads(flow, count, size int) [][]byte {
	return harness.DistinctPayloads(flow*7, count, size)
}

type recvKey struct {
	peer netsim.Addr
	flow byte
}

// gbnServer tracks per-(peer,flow) receivers spawned by Serve.
type gbnServer struct {
	mu    sync.Mutex
	recvs map[recvKey]*arq.WindowReceiver
}

func newGBNServer(node *Node) (*gbnServer, error) {
	s := &gbnServer{recvs: make(map[recvKey]*arq.WindowReceiver)}
	err := node.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		r, err := arq.NewGBNReceiver(port, peer)
		if err != nil {
			return nil
		}
		s.mu.Lock()
		s.recvs[recvKey{peer, flow}] = r
		s.mu.Unlock()
		return r.OnDatagram
	})
	return s, err
}

func (s *gbnServer) receiver(peer netsim.Addr, flow byte) *arq.WindowReceiver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recvs[recvKey{peer, flow}]
}

const e2eFlows = 64

// TestLoopbackGBN64Flows is the sim-to-real acceptance test: 64
// concurrent go-back-N flows transfer distinct payloads from a client
// node to a server node over real loopback UDP, and every byte arrives
// in order — the same engines, verbatim, that run inside netsim.
func TestLoopbackGBN64Flows(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	srv, err := newGBNServer(server)
	if err != nil {
		t.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}

	const payloadsPerFlow, payloadSize = 30, 256
	cfg := arq.FlowConfig{Window: 32, RTO: 100 * time.Millisecond, MaxRetries: 20}

	type flowState struct {
		sender *arq.WindowSender
		done   chan struct{}
	}
	states := make([]flowState, e2eFlows)
	for id := 0; id < e2eFlows; id++ {
		id := id
		f, err := client.Flow(byte(id))
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		var aerr error
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			states[id].sender, aerr = arq.AttachGBNSender(rt, port, peer, cfg,
				flowPayloads(id, payloadsPerFlow, payloadSize),
				func() { close(done) })
		}); err != nil {
			t.Fatal(err)
		}
		if aerr != nil {
			t.Fatal(aerr)
		}
		states[id].done = done
	}

	deadline := time.After(30 * time.Second)
	for id := range states {
		select {
		case <-states[id].done:
		case <-deadline:
			t.Fatalf("flow %d: transfer did not finish in time", id)
		}
	}

	clientAddr := client.Addr()
	for id := range states {
		if err := states[id].sender.Err(); err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
		res := states[id].sender.Result()
		if !res.OK {
			t.Fatalf("flow %d: sender gave up (sent %d, retransmits %d)", id, res.PacketsSent, res.Retransmits)
		}
		rcv := srv.receiver(clientAddr, byte(id))
		if rcv == nil {
			t.Fatalf("flow %d: server never spawned a receiver", id)
		}
		var delivered [][]byte
		if err := server.Do(byte(id), func() { delivered = rcv.Delivered() }); err != nil {
			t.Fatal(err)
		}
		expected := flowPayloads(id, payloadsPerFlow, payloadSize)
		if len(delivered) != len(expected) {
			t.Fatalf("flow %d: delivered %d/%d payloads", id, len(delivered), len(expected))
		}
		for i := range expected {
			if !bytes.Equal(delivered[i], expected[i]) {
				t.Fatalf("flow %d: payload %d content mismatch", id, i)
			}
		}
	}
}

// TestLoopbackSR64Flows runs the selective-repeat engine over loopback:
// per-packet timers and the out-of-order receive buffer on the
// real-clock runtime.
func TestLoopbackSR64Flows(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	cfg := arq.FlowConfig{Window: 32, RTO: 100 * time.Millisecond, MaxRetries: 20}
	var mu sync.Mutex
	recvs := make(map[recvKey]*arq.WindowReceiver)
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		r, err := arq.NewSRReceiver(port, peer, cfg)
		if err != nil {
			return nil
		}
		mu.Lock()
		recvs[recvKey{peer, flow}] = r
		mu.Unlock()
		return r.OnDatagram
	})
	if err != nil {
		t.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}

	const payloadsPerFlow, payloadSize = 20, 256
	senders := make([]*arq.WindowSender, e2eFlows)
	dones := make([]chan struct{}, e2eFlows)
	for id := 0; id < e2eFlows; id++ {
		id := id
		f, err := client.Flow(byte(id))
		if err != nil {
			t.Fatal(err)
		}
		dones[id] = make(chan struct{})
		var aerr error
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			senders[id], aerr = arq.AttachSRSender(rt, port, peer, cfg,
				flowPayloads(id, payloadsPerFlow, payloadSize),
				func() { close(dones[id]) })
		}); err != nil {
			t.Fatal(err)
		}
		if aerr != nil {
			t.Fatal(aerr)
		}
	}

	deadline := time.After(30 * time.Second)
	for id := range dones {
		select {
		case <-dones[id]:
		case <-deadline:
			t.Fatalf("flow %d: transfer did not finish in time", id)
		}
	}
	clientAddr := client.Addr()
	for id := range senders {
		if err := senders[id].Err(); err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
		if !senders[id].Result().OK {
			t.Fatalf("flow %d: sender gave up", id)
		}
		mu.Lock()
		rcv := recvs[recvKey{clientAddr, byte(id)}]
		mu.Unlock()
		if rcv == nil {
			t.Fatalf("flow %d: no receiver", id)
		}
		var delivered [][]byte
		if err := server.Do(byte(id), func() { delivered = rcv.Delivered() }); err != nil {
			t.Fatal(err)
		}
		expected := flowPayloads(id, payloadsPerFlow, payloadSize)
		if len(delivered) != len(expected) {
			t.Fatalf("flow %d: delivered %d/%d payloads", id, len(delivered), len(expected))
		}
		for i := range expected {
			if !bytes.Equal(delivered[i], expected[i]) {
				t.Fatalf("flow %d: payload %d content mismatch", id, i)
			}
		}
	}
}

// TestMuxFramingHostileBytes feeds the node attacker-controlled
// datagrams straight from a plain UDP socket — truncated frames,
// corrupted mux headers, valid headers with garbage bodies — and
// checks they are counted and dropped without disturbing a live
// transfer.
func TestMuxFramingHostileBytes(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	srv, err := newGBNServer(server)
	if err != nil {
		t.Fatal(err)
	}

	attacker, err := net.Dial("udp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()

	hostile := [][]byte{
		{},                         // empty datagram
		{0x07},                     // truncated: header cut short
		{0x07, 0x07},               // corrupted header: complement wrong
		{0xff, 0xfe},               // off-by-one complement
		bytes.Repeat([]byte{0}, 3), // header 00/00: complement wrong
	}
	badHeader := 0
	for _, h := range hostile {
		if _, err := attacker.Write(h); err != nil {
			t.Fatal(err)
		}
		if len(h) < 2 || h[1] != ^h[0] {
			badHeader++
		}
	}
	// Valid mux headers with hostile bodies: routed to a flow, then
	// rejected by the arq codec's checksum — never delivered.
	framed := [][]byte{
		{0x03, ^byte(0x03)}, // header only, no body
		append([]byte{0x03, ^byte(0x03)}, bytes.Repeat([]byte{0xaa}, 40)...), // garbage body
		append([]byte{0x05, ^byte(0x05)}, []byte("GET / HTTP/1.1\r\n")...),   // wrong protocol
	}
	for _, h := range framed {
		if _, err := attacker.Write(h); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return server.Drops() >= uint64(badHeader) })

	// The aggregate hides the story; the per-reason counters must not.
	// Every hostile datagram above fails the header check — none are
	// oversize and none came from an unspeakable source family.
	if got := server.Obs().Total(obs.DropBadHeader); got < uint64(badHeader) {
		t.Errorf("drop_bad_header = %d, want >= %d", got, badHeader)
	}
	if got := server.Obs().Total(obs.DropOversize); got != 0 {
		t.Errorf("drop_oversize = %d, want 0 (nothing oversize was sent)", got)
	}
	if got := server.Obs().Total(obs.DropBadSource); got != 0 {
		t.Errorf("drop_bad_source = %d, want 0", got)
	}

	// The node must still carry a real transfer afterwards.
	client, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := client.Flow(9)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	payloads := flowPayloads(9, 10, 128)
	var sender *arq.WindowSender
	var aerr error
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		sender, aerr = arq.AttachGBNSender(rt, port, peer,
			arq.FlowConfig{Window: 8, RTO: 100 * time.Millisecond, MaxRetries: 20},
			payloads, func() { close(done) })
	}); err != nil {
		t.Fatal(err)
	}
	if aerr != nil {
		t.Fatal(aerr)
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("transfer did not finish after hostile traffic")
	}
	if !sender.Result().OK {
		t.Fatal("transfer failed after hostile traffic")
	}
	rcv := srv.receiver(client.Addr(), 9)
	if rcv == nil {
		t.Fatal("no receiver spawned")
	}
	var delivered [][]byte
	if err := server.Do(9, func() { delivered = rcv.Delivered() }); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != len(payloads) {
		t.Fatalf("delivered %d/%d after hostile traffic", len(delivered), len(payloads))
	}
}

// TestOversizeDatagramDropped: a datagram larger than MaxPacket is
// truncated by the kernel read; the inner codec's checksum then rejects
// it, so nothing corrupt is ever delivered.
func TestOversizeDatagramDropped(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1, MaxPacket: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	delivered := make(chan []byte, 1)
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) {
			select {
			case delivered <- append([]byte(nil), data...):
			default:
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	attacker, err := net.Dial("udp", string(server.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	big := make([]byte, 4096)
	big[0], big[1] = 0x01, ^byte(0x01)
	if _, err := attacker.Write(big); err != nil {
		t.Fatal(err)
	}
	// The read buffer is MaxPacket+1 (or the GRO maximum), so the frame
	// arrives longer than MaxPacket and must be counted as an oversize
	// drop — not silently swallowed (the pre-obs behaviour).
	waitFor(t, 5*time.Second, func() bool {
		return server.Obs().Total(obs.DropOversize) >= 1
	})
	select {
	case data := <-delivered:
		if len(data) > 512 {
			t.Fatalf("oversize datagram delivered whole: %d bytes", len(data))
		}
		// Truncated delivery is fine: real engines reject it by checksum.
	case <-time.After(500 * time.Millisecond):
	}
}

// TestSendSideDropsCounted: frames the node refuses to put on the wire
// historically vanished without a trace (engines ignore Send errors, as
// the simulator's Send cannot fail this way). Each refusal must now
// land in its own drop-reason counter and surface through SendErrors.
func TestSendSideDropsCounted(t *testing.T) {
	node, err := Listen("127.0.0.1:0", Config{Shards: 1, MaxPacket: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	f, err := node.Flow(1)
	if err != nil {
		t.Fatal(err)
	}

	// Oversize: rejected at staging, synchronously.
	sendErr := make(chan error, 1)
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		sendErr <- port.Send(node.Addr(), make([]byte, 1024))
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err == nil {
		t.Error("oversize send returned nil error")
	}
	if got := node.Obs().Total(obs.DropSendOversize); got != 1 {
		t.Errorf("drop_send_oversize = %d, want 1", got)
	}

	// Family mismatch: a v6 destination parses and stages fine on a v4
	// socket; the kernel-facing sender refuses it at flush time, where
	// only the counter can tell the story.
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		sendErr <- port.Send(netsim.Addr("[::1]:9"), []byte("x"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("staging a v6 destination failed early: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return node.Obs().Total(obs.DropSendFamily) >= 1
	})
	if node.SendErrors() == 0 {
		t.Error("SendErrors() = 0 after a family-mismatch drop")
	}
}

// TestLoopTimersCancelReallyCancels pins the PR 2 guarantee on the
// real-clock loop: a cancelled timer never fires, even when cancelled
// from a timer callback at the same wakeup.
func TestLoopTimersCancelReallyCancels(t *testing.T) {
	node, err := Listen("127.0.0.1:0", Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	f, err := node.Flow(0)
	if err != nil {
		t.Fatal(err)
	}

	fired := make(chan string, 8)
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		doomed := rt.After(5*time.Millisecond, func() { fired <- "doomed" })
		doomed.Cancel()
		if doomed.Active() {
			t.Error("cancelled timer still active")
		}
		var victim netsim.Timer
		rt.After(3*time.Millisecond, func() {
			victim.Cancel()
			fired <- "canceller"
		})
		victim = rt.After(10*time.Millisecond, func() { fired <- "victim" })
		rt.After(20*time.Millisecond, func() { fired <- "sentinel" })
	}); err != nil {
		t.Fatal(err)
	}

	var got []string
	deadline := time.After(5 * time.Second)
loop:
	for {
		select {
		case s := <-fired:
			got = append(got, s)
			if s == "sentinel" {
				break loop
			}
		case <-deadline:
			t.Fatalf("sentinel never fired; got %v", got)
		}
	}
	for _, s := range got {
		if s == "doomed" || s == "victim" {
			t.Fatalf("cancelled timer %q fired (sequence %v)", s, got)
		}
	}
}

// TestLoopTimerArmCancelAllocs pins the real-clock loop's timer cost:
// the wheel pools its events and the timer is the event's target, so an
// After+Cancel cycle allocates only the Timer handle.
func TestLoopTimerArmCancelAllocs(t *testing.T) {
	l := newLoop(time.Now())
	l.After(time.Second, func() {}).Cancel() // warm the event pool
	allocs := testing.AllocsPerRun(1000, func() {
		l.After(time.Second, func() {}).Cancel()
	})
	if allocs > 1 {
		t.Errorf("After+Cancel allocates %.1f objects, want <= 1 (the Timer handle)", allocs)
	}
}

// TestFlowClaiming: claiming a flow twice fails; claims and Serve
// coexist.
func TestFlowClaiming(t *testing.T) {
	node, err := Listen("127.0.0.1:0", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := node.Flow(7); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Flow(7); err == nil {
		t.Fatal("double-claiming flow 7 succeeded")
	}
	if err := node.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCloseIdempotent: Close twice, and operations after Close fail
// cleanly.
func TestCloseIdempotent(t *testing.T) {
	node, err := Listen("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	if err := node.Do(0, func() {}); err == nil {
		t.Fatal("Do succeeded on a closed node")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func Example() {
	// Serve echoes on every flow; a client ping-pongs once.
	server, _ := Listen("127.0.0.1:0", Config{Shards: 1})
	defer server.Close()
	_ = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) { _ = port.Send(from, data) }
	})
	client, _ := Listen("127.0.0.1:0", Config{Shards: 1})
	defer client.Close()
	peer, _ := client.Dial(string(server.Addr()))
	f, _ := client.Flow(1)
	echoed := make(chan int, 1)
	_ = f.Do(func(rt netsim.Runtime, port netsim.Port) {
		port.SetHandler(func(from netsim.Addr, data []byte) { echoed <- len(data) })
		_ = port.Send(peer, []byte("ping"))
	})
	fmt.Println(<-echoed, "bytes echoed")
	// Output: 4 bytes echoed
}

// TestServePeerCap: a served flow stops spawning engines once
// MaxPeersPerFlow distinct sources have contacted it — the bound that
// keeps spoofed-source sweeps from growing server memory.
func TestServePeerCap(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1, MaxPeersPerFlow: 2})
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
	frame := []byte{0x01, ^byte(0x01), 0xde, 0xad}
	for i := 0; i < 6; i++ {
		c, err := net.Dial("udp", string(server.Addr()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	waitFor(t, 5*time.Second, func() bool { return spawned.Load() >= 2 })
	time.Sleep(50 * time.Millisecond) // let any over-cap spawns surface
	if got := spawned.Load(); got > 2 {
		t.Fatalf("spawned %d engines for flow 1; cap is 2", got)
	}
}
