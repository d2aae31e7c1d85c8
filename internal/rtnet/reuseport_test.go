package rtnet

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
)

// TestReusePortSocketGroup checks the socket-group wiring: where the
// platform supports SO_REUSEPORT a 4-shard node binds 4 sockets to one
// port, a forced-single-socket node binds 1, and transfers complete on
// both data paths.
func TestReusePortSocketGroup(t *testing.T) {
	multi, err := Listen("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer multi.Close()
	single, err := Listen("127.0.0.1:0", Config{Shards: 4, SingleSocket: true})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()

	if reusePortSupported {
		if multi.Sockets() != 4 {
			t.Errorf("REUSEPORT node has %d sockets, want 4", multi.Sockets())
		}
	} else if multi.Sockets() != 1 {
		t.Errorf("fallback node has %d sockets, want 1", multi.Sockets())
	}
	if single.Sockets() != 1 {
		t.Errorf("SingleSocket node has %d sockets, want 1", single.Sockets())
	}

	// A real transfer across each server shape, from a multi-socket
	// client: frames must arrive whichever socket the kernel steers
	// them to, because readers route by flow id, not by socket.
	for _, server := range []*Node{multi, single} {
		srv, err := newGBNServer(server)
		if err != nil {
			t.Fatal(err)
		}
		client, err := Listen("127.0.0.1:0", Config{Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		peer, err := client.Dial(string(server.Addr()))
		if err != nil {
			client.Close()
			t.Fatal(err)
		}
		payloads := flowPayloads(3, 20, 256)
		done := make(chan struct{})
		f, err := client.Flow(7)
		if err != nil {
			client.Close()
			t.Fatal(err)
		}
		var sender *arq.WindowSender
		var aerr error
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			sender, aerr = arq.AttachGBNSender(rt, port, peer,
				arq.FlowConfig{Window: 8, RTO: 50 * time.Millisecond, MaxRetries: 30},
				payloads, func() { close(done) })
		}); err != nil {
			client.Close()
			t.Fatal(err)
		}
		if aerr != nil {
			client.Close()
			t.Fatal(aerr)
		}
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			client.Close()
			t.Fatalf("transfer to %d-socket server did not finish", server.Sockets())
		}
		if !sender.Result().OK {
			t.Fatalf("transfer to %d-socket server failed", server.Sockets())
		}
		rcv := srv.receiver(client.Addr(), 7)
		if rcv == nil {
			client.Close()
			t.Fatal("no receiver spawned")
		}
		var delivered [][]byte
		if err := server.Do(7, func() { delivered = rcv.Delivered() }); err != nil {
			client.Close()
			t.Fatal(err)
		}
		if len(delivered) != len(payloads) {
			t.Fatalf("%d-socket server delivered %d/%d payloads", server.Sockets(), len(delivered), len(payloads))
		}
		for i := range delivered {
			if !bytes.Equal(delivered[i], payloads[i]) {
				t.Fatalf("%d-socket server payload %d corrupted", server.Sockets(), i)
			}
		}
		client.Close()
	}
}

// TestGSOBurstIntegrity drives the segment-coalescing send path hard:
// one wakeup stages a full window of equal-size frames to one peer (the
// exact shape GSO coalesces into super-datagrams, and GRO may
// re-coalesce on receive), with distinct contents per frame so a
// mis-split at any boundary corrupts a frame visibly. Every frame must
// arrive intact, whatever combination of offloads the kernel applied.
func TestGSOBurstIntegrity(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 2, Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	const frames = 64
	const size = 512
	type recv struct {
		mu   sync.Mutex
		got  map[byte][]byte
		done chan struct{}
	}
	r := &recv{got: make(map[byte][]byte), done: make(chan struct{})}
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if len(data) == 0 {
				return
			}
			if _, dup := r.got[data[0]]; !dup {
				r.got[data[0]] = append([]byte(nil), data...)
				if len(r.got) == frames {
					close(r.done)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	client, err := Listen("127.0.0.1:0", Config{Shards: 1, Batch: 128})
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

	// Distinct payloads, all the same size: frame i is [i, i+1, ...].
	want := make(map[byte][]byte, frames)
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		for i := 0; i < frames; i++ {
			p := make([]byte, size)
			for j := range p {
				p[j] = byte(i + j*13)
			}
			want[byte(i)] = p
			if err := port.Send(peer, p); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		// All 64 staged in one wakeup: the flush coalesces them.
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		r.mu.Lock()
		n := len(r.got)
		r.mu.Unlock()
		t.Fatalf("received %d/%d frames (UDP loss on loopback is not expected at this volume)", n, frames)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < frames; i++ {
		got, ok := r.got[byte(i)]
		if !ok {
			t.Fatalf("frame %d missing", i)
		}
		if !bytes.Equal(got, want[byte(i)]) {
			t.Fatalf("frame %d corrupted: segment boundaries mis-split", i)
		}
	}
}

// TestMixedSizeBurstIntegrity stages frames of varying sizes to one
// peer in one wakeup: every size change breaks a GSO run (a shorter
// frame may only terminate one), so this exercises the run-detection
// boundaries in the flush path.
func TestMixedSizeBurstIntegrity(t *testing.T) {
	server, err := Listen("127.0.0.1:0", Config{Shards: 1, Batch: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	sizes := []int{300, 300, 300, 40, 300, 500, 500, 40, 40, 500, 300, 300, 300, 300, 64}
	type framed struct {
		idx  int
		data []byte
	}
	var mu sync.Mutex
	got := make(map[int][]byte)
	done := make(chan struct{})
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) {
			mu.Lock()
			defer mu.Unlock()
			if len(data) < 1 {
				return
			}
			idx := int(data[0])
			if _, dup := got[idx]; !dup {
				got[idx] = append([]byte(nil), data...)
				if len(got) == len(sizes) {
					close(done)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	client, err := Listen("127.0.0.1:0", Config{Shards: 1, Batch: 128})
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
	want := make([]framed, len(sizes))
	if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
		for i, sz := range sizes {
			p := make([]byte, sz)
			p[0] = byte(i)
			for j := 1; j < sz; j++ {
				p[j] = byte(i*31 + j)
			}
			want[i] = framed{i, p}
			if err := port.Send(peer, p); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("received %d/%d mixed-size frames", n, len(sizes))
	}
	mu.Lock()
	defer mu.Unlock()
	for _, w := range want {
		g, ok := got[w.idx]
		if !ok {
			t.Fatalf("frame %d missing", w.idx)
		}
		if !bytes.Equal(g, w.data) {
			t.Fatalf("frame %d (size %d) corrupted across a run boundary", w.idx, len(w.data))
		}
	}
}

// TestOffloadsReported just surfaces what this platform/kernels gave
// us, so CI logs show which data path the suite actually exercised.
func TestOffloadsReported(t *testing.T) {
	n, err := Listen("127.0.0.1:0", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	gso, gro := n.Offloads()
	t.Logf("sockets=%d gso=%v gro=%v (%s)", n.Sockets(), gso, gro,
		fmt.Sprintf("reuseport=%v", reusePortSupported))
}
