package rtnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
)

// BenchmarkRTNetLoopback measures the steady-state packet loop: 64
// concurrent flows ping-pong fixed-size frames between two nodes over
// real loopback UDP, so every op is one full traversal of the runtime —
// client shard stages + flushes (sendmmsg), server reader (recvmmsg
// burst) routes to a shard, mux dispatch, echo handler stages the
// reply, and back. The target the acceptance criteria pin: 0 allocs/op.
// All allocation happens at attach time; the packet loop itself only
// reuses buffers.
func BenchmarkRTNetLoopback(b *testing.B) {
	const flows = 64
	const frameSize = 512

	server, err := Listen("127.0.0.1:0", Config{Shards: 4, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) { _ = port.Send(from, data) }
	})
	if err != nil {
		b.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 4, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		b.Fatal(err)
	}

	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	done := make(chan struct{})
	var once sync.Once
	payload := make([]byte, frameSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	// Pre-claim the flows and install the ping-pong handlers before the
	// timer starts; the measured region is purely the packet loop.
	fs := make([]*Flow, flows)
	for id := 0; id < flows; id++ {
		f, err := client.Flow(byte(id))
		if err != nil {
			b.Fatal(err)
		}
		fs[id] = f
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			port.SetHandler(func(from netsim.Addr, data []byte) {
				if v := remaining.Add(-1); v > 0 {
					_ = port.Send(peer, payload)
				} else if v == 0 {
					once.Do(func() { close(done) })
				}
			})
		}); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(frameSize)
	b.ReportAllocs()
	b.ResetTimer()
	for _, f := range fs {
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			_ = port.Send(peer, payload)
		}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
}

// BenchmarkRTNetLoopbackARQ is BenchmarkRTNetLoopback with the live
// codec on the path: the server decodes each ARQ packet through the slot
// program and answers with an encoded ack; the client decodes the ack
// and sends the next packet. Every op is therefore one real-loopback
// round trip *plus* one packet decode, one ack encode, one ack decode
// and one packet encode — the rtnet steady-state loop as the protocol
// engines drive it. Target: 0 allocs/op (slot frames and reusable
// buffers only).
func BenchmarkRTNetLoopbackARQ(b *testing.B) {
	const flows = 64
	const payloadSize = 256

	server, err := Listen("127.0.0.1:0", Config{Shards: 4, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		codec, cerr := arq.NewCodec()
		if cerr != nil {
			b.Error(cerr)
			return func(netsim.Addr, []byte) {}
		}
		var ackBuf []byte
		return func(from netsim.Addr, data []byte) {
			pkt, derr := codec.DecodePacketInPlace(data)
			if derr != nil {
				return
			}
			enc, eerr := codec.AppendEncodeAck(ackBuf[:0], pkt.Value().Seq)
			if eerr != nil {
				return
			}
			ackBuf = enc[:0]
			_ = port.Send(from, enc)
		}
	})
	if err != nil {
		b.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: 4, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		b.Fatal(err)
	}

	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	done := make(chan struct{})
	var once sync.Once
	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	type flowState struct {
		codec  *arq.Codec
		encBuf []byte
		seq    uint8
	}
	fs := make([]*Flow, flows)
	for id := 0; id < flows; id++ {
		f, err := client.Flow(byte(id))
		if err != nil {
			b.Fatal(err)
		}
		fs[id] = f
		st := &flowState{}
		st.codec, err = arq.NewCodec()
		if err != nil {
			b.Fatal(err)
		}
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			port.SetHandler(func(from netsim.Addr, data []byte) {
				if _, derr := st.codec.DecodeAckInPlace(data); derr != nil {
					return
				}
				if v := remaining.Add(-1); v > 0 {
					st.seq++
					enc, eerr := st.codec.AppendEncodePacket(st.encBuf[:0], st.seq, payload)
					if eerr != nil {
						return
					}
					st.encBuf = enc[:0]
					_ = port.Send(peer, enc)
				} else if v == 0 {
					once.Do(func() { close(done) })
				}
			})
		}); err != nil {
			b.Fatal(err)
		}
	}

	// Pre-encode the kick-off packet (seq 0) so the timed region is
	// purely the steady-state loop.
	kickCodec, err := arq.NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	kick, err := kickCodec.AppendEncodePacket(nil, 0, payload)
	if err != nil {
		b.Fatal(err)
	}

	b.SetBytes(payloadSize)
	b.ReportAllocs()
	b.ResetTimer()
	for _, f := range fs {
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			_ = port.Send(peer, kick)
		}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
}

// BenchmarkRTNetReusePort measures how aggregate loopback throughput
// scales with the shard count now that every shard owns a SO_REUSEPORT
// socket: 64 concurrent flows ping-pong fixed-size frames between a
// client and a server node, both configured with the given shard (and
// therefore socket) count. With one shard everything serialises on one
// socket pair; with four, the kernel steers flows across four socket
// pairs and four independent reader/loop/flush pipelines. MB/s is
// aggregate payload throughput; the sub-benchmark ratio is the scaling
// figure to watch.
//
// The ratio is only meaningful on a multi-core host. On a single-vCPU
// container (GOMAXPROCS=1) the extra pipelines cannot run in parallel,
// so added shards cost pure context switching and the ratio *inverts*
// — BENCH_hotpath.json records the host's CPU alongside the numbers
// for exactly this reason.
func BenchmarkRTNetReusePort(b *testing.B) {
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchPingPong(b, shards)
		})
	}
}

func benchPingPong(b *testing.B, shards int) {
	const flows = 64
	const frameSize = 512

	server, err := Listen("127.0.0.1:0", Config{Shards: shards, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer server.Close()
	err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) { _ = port.Send(from, data) }
	})
	if err != nil {
		b.Fatal(err)
	}
	client, err := Listen("127.0.0.1:0", Config{Shards: shards, Batch: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	peer, err := client.Dial(string(server.Addr()))
	if err != nil {
		b.Fatal(err)
	}

	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	done := make(chan struct{})
	var once sync.Once
	payload := make([]byte, frameSize)
	for i := range payload {
		payload[i] = byte(i)
	}

	fs := make([]*Flow, flows)
	for id := 0; id < flows; id++ {
		f, err := client.Flow(byte(id))
		if err != nil {
			b.Fatal(err)
		}
		fs[id] = f
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			port.SetHandler(func(from netsim.Addr, data []byte) {
				if v := remaining.Add(-1); v > 0 {
					_ = port.Send(peer, payload)
				} else if v == 0 {
					once.Do(func() { close(done) })
				}
			})
		}); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(frameSize)
	b.ReportAllocs()
	b.ResetTimer()
	for _, f := range fs {
		if err := f.Do(func(rt netsim.Runtime, port netsim.Port) {
			_ = port.Send(peer, payload)
		}); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
}

// BenchmarkTimerRearm is netsim's BenchmarkTimerRearm on the real-clock
// loop's wheel: 1k live timers, each op firing what is due and
// re-arming the oldest timer in place, 1 in 16 left to expire and
// re-armed once fired. Steady state: 0 allocs/op.
func BenchmarkTimerRearm(b *testing.B) {
	const (
		nLive     = 1000
		rto       = 2 * time.Millisecond
		fireEvery = 16
	)
	b.Run("loop-1k", func(b *testing.B) {
		l := newLoop(time.Now())
		fired := 0
		fn := func() { fired++ }
		ring := make([]netsim.Timer, nLive)
		for i := range ring {
			ring[i] = l.After(rto, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.runDue()
			slot := i % nLive
			if slot%fireEvery == 0 && ring[slot].Active() {
				continue // left to expire
			}
			ring[slot] = netsim.Rearm(l, ring[slot], rto+time.Duration((i*7)&1023), fn)
		}
		b.ReportMetric(float64(fired)/float64(b.N), "fires/op")
	})
}
