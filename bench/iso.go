package main

import (
	"fmt"
	"os"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/arq/gen"
	"protodsl/internal/checksum"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/session"
)

// Isolated timings call one layer's public function in a tight loop at
// the workload's own payload size. They use only the zero-allocation
// frame APIs the roadmap keeps (AppendEncode*, Decode*InPlace,
// DecodeInto, StepEv, arq/gen), so later refactors can delete the
// map-based tiers without touching this file.

const isoBatch = 256

// isoNs returns ns per operation of fn, which performs isoBatch
// operations per call: the median of five ~3 ms slices after one
// warm-up call (one short slice under -scale smoke).
func isoNs(smoke bool, fn func()) float64 {
	fn()
	slices, span := 5, 3*time.Millisecond
	if smoke {
		slices, span = 1, 200*time.Microsecond
	}
	var per []float64
	for s := 0; s < slices; s++ {
		n, t0 := 0, time.Now()
		for time.Since(t0) < span {
			fn()
			n += isoBatch
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per)
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink uint64

// isoTimings measures every *iso* per-layer metric at payload size.
func isoTimings(e *env, size int) (map[string]float64, error) {
	out := map[string]float64{}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}

	// arq.Codec: the slot-interpreter codec on today's live path.
	codec, err := arq.NewCodec()
	if err != nil {
		return nil, err
	}
	pktBytes, err := codec.AppendEncodePacket(nil, 7, payload)
	if err != nil {
		return nil, err
	}
	ackBytes, err := codec.AppendEncodeAck(nil, 7)
	if err != nil {
		return nil, err
	}
	var buf []byte
	out["arq.encode_pkt_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			b, _ := codec.AppendEncodePacket(buf[:0], uint8(i), payload)
			buf = b[:0]
		}
	})
	out["arq.decode_pkt_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			p, _ := codec.DecodePacketInPlace(pktBytes)
			sink += uint64(p.Value().Seq)
		}
	})
	out["arq.encode_ack_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			b, _ := codec.AppendEncodeAck(buf[:0], uint8(i))
			buf = b[:0]
		}
	})
	out["arq.decode_ack_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			a, _ := codec.DecodeAckInPlace(ackBytes)
			sink += uint64(a.Value().Seq)
		}
	})

	// wire.Program on the Packet frame, without the arq wrapper.
	prog := codec.PacketProgram()
	frame := prog.NewFrame()
	seqSlot, _ := prog.Slot("seq")
	paySlot, _ := prog.Slot("payload")
	frame.Set(seqSlot, expr.U8(1))
	frame.Set(paySlot, expr.BytesView(payload))
	out["wire.encode_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			b, _ := prog.AppendEncode(buf[:0], frame)
			buf = b[:0]
		}
	})
	dec := prog.NewFrame()
	out["wire.decode_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			if prog.DecodeInto(dec, pktBytes) == nil {
				sink++
			}
		}
	})

	// fsm: one SEND + OK pair through StepEv on the compiled ARQ sender,
	// the ack built the way arq.Sender does (a slot frame behind FrameMsg).
	m, err := fsm.NewMachine(arq.SenderSpec())
	if err != nil {
		return nil, err
	}
	evSend, ok1 := m.EventID(arq.EvSend)
	evOK, ok2 := m.EventID(arq.EvOK)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("ARQ sender machine lacks SEND/OK")
	}
	ackShape := m.Program().MsgShape("Ack")
	ackFrame := codec.AckProgram().NewFrame()
	ackSeq, _ := codec.AckProgram().Slot("seq")
	var stepErr error
	out["fsm.step_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			res, err := m.StepEv(evSend, expr.BytesView(payload))
			if err != nil || res.Fired == nil {
				stepErr = fmt.Errorf("SEND did not fire: %v", err)
				return
			}
			ackFrame.Set(ackSeq, res.Outputs[0].Frame.Get(seqSlot))
			res, err = m.StepEv(evOK, expr.FrameMsg(ackShape, ackFrame))
			if err != nil || res.Fired == nil {
				stepErr = fmt.Errorf("OK did not fire: %v", err)
				return
			}
		}
	})
	if stepErr != nil {
		return nil, stepErr
	}

	out["checksum.sum8_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			sink += checksum.Sum8(pktBytes)
		}
	})

	// gen: the AOT backend (reference: not on the live path today).
	gp := gen.Packet{Seq: 1, Payload: payload}
	out["gen.encode_pkt_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			b, _ := gen.AppendEncodePacket(buf[:0], &gp)
			buf = b[:0]
		}
	})
	var gd gen.Packet
	out["gen.decode_pkt_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			if gen.DecodePacketInto(&gd, pktBytes) == nil {
				sink++
			}
		}
	})
	gm := gen.NewSenderMachine()
	var gack gen.Ack
	out["gen.step_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			_, _ = gm.SEND(payload)
			gack.Seq = gm.Vars.Seq
			_, _ = gm.OK(&gack)
		}
	})

	// obs write paths.
	sh := obs.New(1, 0).Shard(0)
	out["obs.inc_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			sh.Inc(obs.FramesIn)
		}
	})
	out["obs.observe_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			sh.RTT().Observe(time.Duration(i&0xffff) * time.Microsecond)
		}
	})

	// session: the established-peer data path through a gate, and one
	// snapshot append to a state log.
	gate, err := establishedGate()
	if err != nil {
		return nil, err
	}
	out["session.gate_data_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			gate.OnFrame(isoClient, pktBytes)
		}
	})
	specs, err := readSpecs(e.root)
	if err != nil {
		return nil, err
	}
	hs, _, err := dsl.Compile(specs["handshake.pdsl"])
	if err != nil {
		return nil, fmt.Errorf("handshake.pdsl: %w", err)
	}
	srvMachine, err := hs.NewMachine("Server")
	if err != nil {
		return nil, err
	}
	mach := srvMachine.AppendState(nil)
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.out, "iso-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := session.NewStore(dir, 0)
	if err != nil {
		return nil, err
	}
	expect := uint64(0)
	out["session.snapshot_append_ns"] = isoNs(e.smoke, func() {
		for i := 0; i < isoBatch; i++ {
			expect++
			store.Append(7, isoClient, expect, mach)
		}
	})
	if err := store.Err(); err != nil {
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}

	// dsl: compile every spec file, median of repeats.
	reps := 5
	if e.smoke {
		reps = 1
	}
	var ms []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for name, src := range specs {
			if _, _, err := dsl.Compile(src); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	out["dsl.compile_ms"] = median(ms)
	return out, nil
}

const (
	isoClient netsim.Addr = "iso-client"
	isoServer netsim.Addr = "iso-server"
)

// isoLoop is an inert single-goroutine runtime: posted functions queue
// until drain, timers never fire.
type isoLoop struct{ q []func() }

func (l *isoLoop) Now() time.Duration                       { return 0 }
func (l *isoLoop) After(time.Duration, func()) netsim.Timer { return inertTimer{} }
func (l *isoLoop) Post(fn func())                           { l.q = append(l.q, fn) }
func (l *isoLoop) drain() {
	for len(l.q) > 0 {
		fn := l.q[0]
		l.q = l.q[1:]
		fn()
	}
}

type inertTimer struct{}

func (inertTimer) Cancel()      {}
func (inertTimer) Fired() bool  { return false }
func (inertTimer) Active() bool { return true }

// isoPort delivers to its peer's handler through the loop's queue, so a
// reply never re-enters the machine step that caused it.
type isoPort struct {
	addr netsim.Addr
	loop *isoLoop
	peer *isoPort
	h    func(netsim.Addr, []byte)
}

func (p *isoPort) Addr() netsim.Addr                       { return p.addr }
func (p *isoPort) SetHandler(fn func(netsim.Addr, []byte)) { p.h = fn }
func (p *isoPort) Send(_ netsim.Addr, data []byte) error {
	d := append([]byte(nil), data...)
	p.loop.Post(func() {
		if p.peer.h != nil {
			p.peer.h(p.addr, d)
		}
	})
	return nil
}

// establishedGate drives a real client through the cookie handshake
// against a gate over in-memory ports and returns the gate with that
// one peer established.
func establishedGate() (*session.Gate, error) {
	loop := &isoLoop{}
	cp := &isoPort{addr: isoClient, loop: loop}
	sp := &isoPort{addr: isoServer, loop: loop, peer: cp}
	cp.peer = sp
	eng := &session.Engine{Handle: func(netsim.Addr, []byte) {}}
	gate, err := session.NewGate(loop, sp, 7, session.GateConfig{
		Accept: func(netsim.Addr, *session.Resume) *session.Engine { return eng },
	})
	if err != nil {
		return nil, err
	}
	if _, err := session.Connect(loop, cp, isoServer, session.ClientConfig{Nonce: 9}); err != nil {
		return nil, err
	}
	loop.drain()
	if gate.Peers() != 1 {
		return nil, fmt.Errorf("in-memory handshake left %d peers established, want 1", gate.Peers())
	}
	// From here on the gate's sends (none on the data path) go nowhere.
	sp.peer = &isoPort{addr: isoClient, loop: loop}
	return gate, nil
}
