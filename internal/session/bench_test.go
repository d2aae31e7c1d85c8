package session

import (
	"testing"
	"time"

	"protodsl/internal/netsim"
)

// benchRuntime is an inert runtime for steady-state benches: Now is a
// settable clock and After hands back a timer that never fires, so the
// measured path is exactly the engine's own work.
type benchRuntime struct{ now time.Duration }

func (r *benchRuntime) Now() time.Duration                            { return r.now }
func (r *benchRuntime) After(d time.Duration, fn func()) netsim.Timer { return benchTimer{} }
func (r *benchRuntime) Post(fn func())                                { fn() }

type benchTimer struct{}

func (benchTimer) Cancel()      {}
func (benchTimer) Fired() bool  { return false }
func (benchTimer) Active() bool { return true }

// benchPort discards sends and counts them.
type benchPort struct {
	addr netsim.Addr
	n    int
}

func (p *benchPort) Addr() netsim.Addr                       { return p.addr }
func (p *benchPort) Send(to netsim.Addr, data []byte) error  { p.n++; return nil }
func (p *benchPort) SetHandler(fn func(netsim.Addr, []byte)) {}

// establishedClient hand-drives a client to Established on the inert
// runtime (SYN out, SYN-ACK in, ACK-C out).
func establishedClient(tb testing.TB) *Client {
	tb.Helper()
	rt := &benchRuntime{}
	port := &benchPort{addr: "client"}
	cli, err := Connect(rt, port, "server", ClientConfig{
		Nonce:          5,
		HeartbeatEvery: time.Second,
	})
	if err != nil {
		tb.Fatal(err)
	}
	codec, err := NewCodec()
	if err != nil {
		tb.Fatal(err)
	}
	cli.onFrame("server", codec.AppendSynAck(nil, 5, 6))
	if cli.m.State() != stateEstablished {
		tb.Fatalf("client state = %s", cli.m.State())
	}
	return cli
}

// establishedGate hand-drives a gate through a full cookie round-trip
// from peer "client" on the inert runtime.
func establishedGate(tb testing.TB, eng *Engine, store *Store) *Gate {
	tb.Helper()
	rt := &benchRuntime{}
	port := &benchPort{addr: "server"}
	gate, err := NewGate(rt, port, 7, GateConfig{
		Accept: func(peer netsim.Addr, resume *Resume) *Engine { return eng },
		Store:  store,
	})
	if err != nil {
		tb.Fatal(err)
	}
	codec, err := NewCodec()
	if err != nil {
		tb.Fatal(err)
	}
	gate.OnFrame("client", codec.AppendAckC(nil, 9, gate.cookie("client", 9)))
	if gate.Peers() != 1 {
		tb.Fatalf("gate peers = %d", gate.Peers())
	}
	return gate
}

// BenchmarkSessionHandshake measures a full cookie round-trip: SYN in,
// SYN-ACK reflect (MAC mint), ACK-C in (MAC verify, machine spawn,
// engine accept), plus the client side's two steps.
func BenchmarkSessionHandshake(b *testing.B) {
	eng := &Engine{Handle: func(netsim.Addr, []byte) {}}
	rt := &benchRuntime{}
	port := &benchPort{addr: "server"}
	gate, err := NewGate(rt, port, 7, GateConfig{
		Accept: func(peer netsim.Addr, resume *Resume) *Engine { return eng },
	})
	if err != nil {
		b.Fatal(err)
	}
	codec, err := NewCodec()
	if err != nil {
		b.Fatal(err)
	}
	var syn, ackc []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nonce := uint32(i)
		syn = codec.AppendSyn(syn[:0], nonce)
		gate.OnFrame("client", syn)
		ackc = codec.AppendAckC(ackc[:0], nonce, gate.cookie("client", nonce))
		gate.OnFrame("client", ackc)
		// Tear the peer back down so each iteration re-handshakes.
		gate.OnFrame("client", codec.AppendFin(nil))
	}
}

// BenchmarkSessionBeatTick measures one steady-state heartbeat: miss
// bookkeeping, a TICK through the compiled machine, encode and send.
// Must be 0 allocs/op (gated by make allocscheck).
func BenchmarkSessionBeatTick(b *testing.B) {
	cli := establishedClient(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cli.awaiting = false // a BEAT-ACK "arrived" between ticks
		cli.onTick()
	}
}

// BenchmarkSessionGateData measures the established-peer data path
// through the gate: classify, peer lookup, engine dispatch. Must be 0
// allocs/op (gated by make allocscheck).
func BenchmarkSessionGateData(b *testing.B) {
	eng := &Engine{Handle: func(netsim.Addr, []byte) {}}
	gate := establishedGate(b, eng, nil)
	frame := []byte("\x05ordinary arq data frame bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate.OnFrame("client", frame)
	}
}

// BenchmarkSessionSnapshotAppend measures one progress snapshot: the
// machine state canon plus the framed, CRC'd append to the state log.
func BenchmarkSessionSnapshotAppend(b *testing.B) {
	store, err := NewStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	progress := uint64(0)
	eng := &Engine{
		Handle:   func(netsim.Addr, []byte) { progress++ },
		Progress: func() uint64 { return progress },
	}
	gate := establishedGate(b, eng, store)
	frame := []byte("\x05ordinary arq data frame bytes")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gate.OnFrame("client", frame) // progress moves every frame: one append each
	}
	b.StopTimer()
	if store.Err() != nil {
		b.Fatal(store.Err())
	}
}
