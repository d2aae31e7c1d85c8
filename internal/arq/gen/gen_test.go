// Behavioural tests for the GENERATED ARQ package: the compile-time
// transition discipline, witness enforcement and codec validation, plus a
// full simulated transfer driven entirely through generated code and an
// equivalence check against the interpreter implementation.
package gen

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/expr"
	"protodsl/internal/fsmtyped"
	"protodsl/internal/genrt"
	"protodsl/internal/netsim"
)

// The generated state types satisfy fsmtyped.State.
var (
	_ fsmtyped.State = SenderReady{}
	_ fsmtyped.State = SenderWait{}
	_ fsmtyped.State = SenderTimeout{}
	_ fsmtyped.State = SenderSent{}
	_ fsmtyped.State = ReceiverReadyFor{}
	_ fsmtyped.State = ReceiverClosed{}
)

func TestGeneratedCodecRoundTrip(t *testing.T) {
	enc, err := EncodePacket(Packet{Seq: 42, Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	checked, err := DecodePacket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !checked.Valid() {
		t.Error("witness invalid")
	}
	p := checked.Value()
	if p.Seq != 42 || string(p.Payload) != "hello" {
		t.Errorf("decoded %+v", p)
	}
}

// TestGeneratedCodecMatchesInterpreter: the generated inline codec and
// the wire-layout interpreter produce byte-identical encodings.
func TestGeneratedCodecMatchesInterpreter(t *testing.T) {
	codec, err := arq.NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	layout := codec.Packet
	f := func(seq uint8, payload []byte) bool {
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		genEnc, err := EncodePacket(Packet{Seq: seq, Payload: payload})
		if err != nil {
			return false
		}
		wireEnc, err := layout.Encode(map[string]expr.Value{
			"seq":     expr.U8(uint64(seq)),
			"payload": expr.Bytes(payload),
		})
		if err != nil {
			return false
		}
		if !bytes.Equal(genEnc, wireEnc) {
			return false
		}
		// And both decoders agree on validity of mutated packets.
		if len(genEnc) > 0 {
			mut := append([]byte(nil), genEnc...)
			mut[0] ^= 0x01
			_, genErr := DecodePacket(mut)
			_, wireErr := layout.Decode(mut)
			if (genErr == nil) != (wireErr == nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGeneratedCodecRejectsCorruption(t *testing.T) {
	enc, err := EncodePacket(Packet{Seq: 1, Payload: []byte{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-1] ^= 0x10
	if _, err := DecodePacket(enc); !errors.Is(err, genrt.ErrChecksumMismatch) {
		t.Errorf("err = %v, want checksum mismatch", err)
	}
	if _, err := DecodePacket(enc[:2]); !errors.Is(err, genrt.ErrShortBuffer) {
		t.Errorf("short err = %v", err)
	}
	good, _ := EncodePacket(Packet{Seq: 1, Payload: nil})
	if _, err := DecodePacket(append(good, 0xFF)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestGeneratedOversizePayloadRefused(t *testing.T) {
	if _, err := EncodePacket(Packet{Payload: make([]byte, 65536)}); !errors.Is(err, genrt.ErrFieldRange) {
		t.Errorf("err = %v, want field range", err)
	}
}

func TestGeneratedMachineHappyPath(t *testing.T) {
	ready := NewSender()
	if ready.Vars.Seq != 0 {
		t.Errorf("initial seq = %d", ready.Vars.Seq)
	}
	wait, pkt, err := ready.Send([]byte("data"))
	if err != nil {
		t.Fatal(err)
	}
	if pkt.Seq != 0 || string(pkt.Payload) != "data" {
		t.Errorf("output packet %+v", pkt)
	}

	// Build the matching ack through the generated codec (the only way to
	// obtain a CheckedAck).
	ackBytes, err := EncodeAck(Ack{Seq: 0})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := DecodeAck(ackBytes)
	if err != nil {
		t.Fatal(err)
	}
	ready2, err := wait.Ack(ack)
	if err != nil {
		t.Fatal(err)
	}
	if ready2.Vars.Seq != 1 {
		t.Errorf("seq after ack = %d", ready2.Vars.Seq)
	}
	sent, err := ready2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if sent.StateName() != "Sent" {
		t.Errorf("final state %s", sent.StateName())
	}

	// The compile-time guarantee (the paper's SendTrans discipline):
	// none of the following compile —
	//	ready.Timeout()      // TIMEOUT is not valid in Ready
	//	sent.Send(nil)       // Sent is final
	//	wait.Finish()        // cannot finish with data in flight
}

func TestGeneratedGuardRejectsWrongSeq(t *testing.T) {
	wait, _, err := NewSender().Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ackBytes, _ := EncodeAck(Ack{Seq: 9})
	wrongAck, err := DecodeAck(ackBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wait.Ack(wrongAck); !errors.Is(err, genrt.ErrGuardFailed) {
		t.Errorf("err = %v, want guard failure", err)
	}
	// The caller still holds `wait` unchanged and can retry: state values
	// are immutable, so rejection has no side effects.
	if wait.Vars.Seq != 0 {
		t.Error("state mutated by rejected transition")
	}
}

func TestGeneratedWitnessEnforcement(t *testing.T) {
	wait, _, err := NewSender().Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// A zero-value CheckedAck was never issued by DecodeAck: refused.
	if _, err := wait.Ack(CheckedAck{}); !errors.Is(err, genrt.ErrUnverified) {
		t.Errorf("err = %v, want unverified witness", err)
	}
}

func TestGeneratedSeqWraps(t *testing.T) {
	ready := NewSender()
	ready.Vars.Seq = 255
	wait, _, err := ready.Send([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ackBytes, _ := EncodeAck(Ack{Seq: 255})
	ack, _ := DecodeAck(ackBytes)
	next, err := wait.Ack(ack)
	if err != nil {
		t.Fatal(err)
	}
	if next.Vars.Seq != 0 {
		t.Errorf("seq after wrap = %d, want 0 (the paper's Byte arithmetic)", next.Vars.Seq)
	}
}

func TestGeneratedReceiver(t *testing.T) {
	recv := NewReceiver()
	pktBytes, _ := EncodePacket(Packet{Seq: 0, Payload: []byte("a")})
	pkt, err := DecodePacket(pktBytes)
	if err != nil {
		t.Fatal(err)
	}
	next, ackOut, err := recv.Accept(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if ackOut.Seq != 0 || next.Vars.Seq != 1 {
		t.Errorf("accept: ack=%d seq=%d", ackOut.Seq, next.Vars.Seq)
	}
	// The duplicate is rejected by Accept's guard but answered by Dupack.
	if _, _, err := next.Accept(pkt); !errors.Is(err, genrt.ErrGuardFailed) {
		t.Errorf("duplicate accept err = %v", err)
	}
	same, dupAck, err := next.Dupack(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if dupAck.Seq != 0 || same.Vars.Seq != 1 {
		t.Errorf("dupack: ack=%d seq=%d", dupAck.Seq, same.Vars.Seq)
	}
	closed, err := same.Close()
	if err != nil {
		t.Fatal(err)
	}
	if closed.StateName() != "Closed" {
		t.Errorf("close -> %s", closed.StateName())
	}
}

// genSender drives the generated machine over the simulator — the
// generated analogue of arq.Sender.
type genSender struct {
	sim  *netsim.Sim
	ep   *netsim.Endpoint
	peer netsim.Addr

	state    fsmtyped.State
	payloads [][]byte
	idx      int

	timer      netsim.Timer
	rto        time.Duration
	maxRetries int
	retries    int

	packetsSent, retransmits int
	done, ok                 bool
	err                      error
}

func (s *genSender) fail(err error) {
	if s.err == nil {
		s.err = err
	}
	s.finish(false)
}

func (s *genSender) finish(ok bool) {
	if s.done {
		return
	}
	s.done, s.ok = true, ok
	if s.timer != nil {
		s.timer.Cancel()
	}
}

func (s *genSender) advance() {
	if s.done {
		return
	}
	ready, isReady := s.state.(SenderReady)
	if !isReady {
		s.fail(errors.New("advance outside Ready"))
		return
	}
	if s.idx >= len(s.payloads) {
		sent, err := ready.Finish()
		if err != nil {
			s.fail(err)
			return
		}
		s.state = sent
		s.finish(true)
		return
	}
	s.transmit(ready, false)
}

func (s *genSender) transmit(ready SenderReady, retrans bool) {
	wait, pkt, err := ready.Send(s.payloads[s.idx])
	if err != nil {
		s.fail(err)
		return
	}
	s.state = wait
	enc, err := EncodePacket(pkt)
	if err != nil {
		s.fail(err)
		return
	}
	if err := s.ep.Send(s.peer, enc); err != nil {
		s.fail(err)
		return
	}
	s.packetsSent++
	if retrans {
		s.retransmits++
	}
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.timer = s.sim.After(s.rto, s.onTimeout)
}

func (s *genSender) onDatagram(_ netsim.Addr, data []byte) {
	if s.done {
		return
	}
	wait, isWait := s.state.(SenderWait)
	ack, err := DecodeAck(data)
	if err != nil {
		if !isWait {
			return
		}
		ready, ferr := wait.Fail()
		if ferr != nil {
			s.fail(ferr)
			return
		}
		s.state = ready
		s.transmit(ready, true)
		return
	}
	if !isWait {
		return
	}
	ready, err := wait.Ack(ack)
	if err != nil {
		return // guard rejection: stale ack
	}
	s.state = ready
	if s.timer != nil {
		s.timer.Cancel()
	}
	s.retries = 0
	s.idx++
	s.advance()
}

func (s *genSender) onTimeout() {
	if s.done {
		return
	}
	wait, isWait := s.state.(SenderWait)
	if !isWait {
		return
	}
	timedOut, err := wait.Timeout()
	if err != nil {
		s.fail(err)
		return
	}
	s.state = timedOut
	s.retries++
	if s.retries > s.maxRetries {
		s.finish(false)
		return
	}
	ready, err := timedOut.Retry()
	if err != nil {
		s.fail(err)
		return
	}
	s.state = ready
	s.transmit(ready, true)
}

// genReceiver drives the generated receiver.
type genReceiver struct {
	ep        *netsim.Endpoint
	peer      netsim.Addr
	state     ReceiverReadyFor
	delivered [][]byte
	err       error
}

func (r *genReceiver) onDatagram(_ netsim.Addr, data []byte) {
	if r.err != nil {
		return
	}
	pkt, err := DecodePacket(data)
	if err != nil {
		return // unverified: dropped before any processing
	}
	var ackOut Ack
	if next, out, aerr := r.state.Accept(pkt); aerr == nil {
		r.state = next
		r.delivered = append(r.delivered, pkt.Value().Payload)
		ackOut = out
	} else if same, out, derr := r.state.Dupack(pkt); derr == nil {
		r.state = same
		ackOut = out
	} else {
		return // unreachable: the guards partition the space
	}
	enc, err := EncodeAck(ackOut)
	if err != nil {
		r.err = err
		return
	}
	if err := r.ep.Send(r.peer, enc); err != nil {
		r.err = err
	}
}

// runGenTransfer mirrors arq.RunTransfer using only generated code.
func runGenTransfer(cfg arq.Config, payloads [][]byte) (ok bool, delivered [][]byte, packetsSent int, err error) {
	if cfg.RTO == 0 {
		cfg.RTO = 50 * time.Millisecond
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 10
	}
	sim := netsim.New(cfg.Seed)
	sEP, err := sim.NewEndpoint("sender")
	if err != nil {
		return false, nil, 0, err
	}
	rEP, err := sim.NewEndpoint("receiver")
	if err != nil {
		return false, nil, 0, err
	}
	sim.Connect(sEP, rEP, cfg.Link)

	recv := &genReceiver{ep: rEP, peer: sEP.Addr(), state: NewReceiver()}
	rEP.SetHandler(recv.onDatagram)
	send := &genSender{
		sim: sim, ep: sEP, peer: rEP.Addr(), state: NewSender(),
		payloads: payloads, rto: cfg.RTO, maxRetries: cfg.MaxRetries,
	}
	sEP.SetHandler(send.onDatagram)
	sim.Post(send.advance)
	if err := sim.RunUntilIdle(100000); err != nil {
		return false, nil, 0, err
	}
	if send.err != nil {
		return false, nil, 0, send.err
	}
	if recv.err != nil {
		return false, nil, 0, recv.err
	}
	return send.ok, recv.delivered, send.packetsSent, nil
}

func TestGeneratedTransferOverLossyLink(t *testing.T) {
	payloads := make([][]byte, 25)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i + 1), byte(i + 2)}
	}
	cfg := arq.Config{
		Seed: 5,
		Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.2, DupProb: 0.05, CorruptProb: 0.05},
		RTO:  15 * time.Millisecond, MaxRetries: 50,
	}
	ok, delivered, _, err := runGenTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("generated transfer failed")
	}
	if len(delivered) != len(payloads) {
		t.Fatalf("delivered %d/%d", len(delivered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(delivered[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}

// TestGeneratedEquivalentToInterpreter: generated code and the fsm
// interpreter produce identical protocol behaviour on identical seeds.
func TestGeneratedEquivalentToInterpreter(t *testing.T) {
	payloads := make([][]byte, 15)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
	}
	for _, loss := range []float64{0, 0.2, 0.4} {
		cfg := arq.Config{
			Seed: 11,
			Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: loss, DupProb: 0.1},
			RTO:  12 * time.Millisecond, MaxRetries: 40,
		}
		interp, err := arq.RunTransfer(cfg, payloads)
		if err != nil {
			t.Fatal(err)
		}
		genOK, genDelivered, genPackets, err := runGenTransfer(cfg, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if interp.OK != genOK {
			t.Fatalf("loss=%.1f: interp ok=%v, generated ok=%v", loss, interp.OK, genOK)
		}
		if len(interp.Delivered) != len(genDelivered) {
			t.Fatalf("loss=%.1f: delivered %d vs %d", loss, len(interp.Delivered), len(genDelivered))
		}
		for i := range interp.Delivered {
			if !bytes.Equal(interp.Delivered[i], genDelivered[i]) {
				t.Fatalf("loss=%.1f: delivery %d differs", loss, i)
			}
		}
		if interp.Sender.PacketsSent != genPackets {
			t.Errorf("loss=%.1f: packets sent %d vs %d", loss, interp.Sender.PacketsSent, genPackets)
		}
	}
}
