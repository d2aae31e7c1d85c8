package arq

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"protodsl/internal/fsm"
	"protodsl/internal/ipv4"
	"protodsl/internal/netsim"
	"protodsl/internal/wire"
)

// TestEnginesRunLoadedProgram: every engine runs the machine programs
// and wire programs arqSpec compiled from arq.pdsl — the same pointers,
// not per-engine recompilations of a copy.
func TestEnginesRunLoadedProgram(t *testing.T) {
	proto, err := arqSpec()
	if err != nil {
		t.Fatal(err)
	}
	senderProg, _ := proto.Program("Sender")
	receiverProg, _ := proto.Program("Receiver")
	pktProg, ackProg := proto.Layouts["Packet"].Program(), proto.Layouts["Ack"].Program()

	sim := netsim.New(1)
	n := 0
	ep := func() *netsim.Endpoint {
		n++
		e, err := sim.NewEndpoint(fmt.Sprint("ep", n))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	peer := ep().Addr()
	cfg := FlowConfig{Window: 4}

	s, err := NewSender(sim, ep(), peer, nil, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReceiver(sim, ep(), peer)
	if err != nil {
		t.Fatal(err)
	}
	if s.machine.Program() != senderProg {
		t.Error("NewSender's machine does not run the loaded Sender program")
	}
	if r.machine.Program() != receiverProg {
		t.Error("NewReceiver's machine does not run the loaded Receiver program")
	}

	gs, err := AttachGBNSender(sim, ep(), peer, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := NewGBNReceiver(ep(), peer)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := AttachSRSender(sim, ep(), peer, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewSRReceiver(ep(), peer, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Codec{
		"stop-and-wait sender": s.codec, "stop-and-wait receiver": r.codec,
		"gbn sender": gs.s.codec, "gbn receiver": gr.r.codec,
		"sr sender": ss.s.codec, "sr receiver": sr.r.codec,
	} {
		if c.PacketProgram() != pktProg || c.AckProgram() != ackProg {
			t.Errorf("%s: codec does not use the loaded Packet/Ack programs", name)
		}
	}
}

// TestMutatedSpecLeavesEnginesAlone: SenderSpec and ReceiverSpec hand
// out caller-owned copies. Mutating them — retargeting and dropping
// transitions, as spec drift tests do, and gutting the messages — must
// not reach the program the
// engines run: the verbatim golden trace and a lossy stop-and-wait
// transfer reproduce exactly.
func TestMutatedSpecLeavesEnginesAlone(t *testing.T) {
	payloads := makePayloads(20, 32)
	cfg := Config{Seed: 3, Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.2}, MaxRetries: 50}
	before, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}

	sender, receiver := SenderSpec(), ReceiverSpec()
	if again := SenderSpec(); again == sender || &again.Transitions[0] == &sender.Transitions[0] {
		t.Fatal("SenderSpec returned an aliased spec")
	}
	for _, spec := range []*fsm.Spec{sender, receiver} {
		for i := range spec.Transitions {
			spec.Transitions[i].Name, spec.Transitions[i].To = "dropped", "Nowhere"
		}
		spec.Transitions = spec.Transitions[1:]
		spec.Messages["Ack"].Fields = nil
		spec.Messages["Packet"].Fields = []wire.Field{}
	}

	want, err := os.ReadFile(filepath.Join("testdata", "golden_trace_gbn_loss0_seed0.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderTrace(t, goldenScenario{variant: "gbn", loss: 0, seed: 0}); got != string(want) {
		t.Error("GBN trace diverged from the golden file after mutating SenderSpec/ReceiverSpec")
	}
	after, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !after.OK || !reflect.DeepEqual(before, after) {
		t.Errorf("stop-and-wait run changed after mutating the specs: ok=%v %s sender %+v (was %s %+v)",
			after.OK, after.Duration, after.Sender, before.Duration, before.Sender)
	}
}

// TestConcurrentEngineConstruction: the compiled protocols are shared by
// every engine on every shard, so building engines and codecs from many
// goroutines at once — and encoding and decoding through each — must be
// race-free (run under -race in CI) and give every goroutine the same
// bytes.
func TestConcurrentEngineConstruction(t *testing.T) {
	const workers = 32
	payloads := makePayloads(8, 48)
	hdr := ipv4.Header{
		Version: 4, IHL: 5, TotalLength: 40, TTL: 64, Protocol: 17,
		Source: [4]byte{10, 0, 0, 1}, Destination: [4]byte{10, 0, 0, 2},
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	encoded := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs <- func() error {
				res, err := RunTransfer(Config{Seed: int64(w), Link: netsim.LinkParams{Delay: time.Millisecond}}, payloads)
				if err != nil {
					return err
				}
				gbn, err := RunTransferGBN(GBNConfig{Seed: int64(w), Window: 4, Link: netsim.LinkParams{Delay: time.Millisecond}}, payloads)
				if err != nil {
					return err
				}
				if !res.OK || !gbn.OK || !reflect.DeepEqual(res.Delivered, payloads) || !reflect.DeepEqual(gbn.Delivered, payloads) {
					return fmt.Errorf("worker %d: transfer failed or corrupted", w)
				}

				c, err := NewCodec()
				if err != nil {
					return err
				}
				pkt, err := c.AppendEncodePacket(nil, uint8(w), payloads[w%len(payloads)])
				if err != nil {
					return err
				}
				got, err := c.DecodePacketInPlace(pkt)
				if err != nil || got.Value().Seq != uint8(w) || !bytes.Equal(got.Value().Payload, payloads[w%len(payloads)]) {
					return fmt.Errorf("worker %d: packet round trip: %v", w, err)
				}
				ack, err := c.AppendEncodeAck(nil, uint8(w))
				if err != nil {
					return err
				}
				if a, err := c.DecodeAckInPlace(ack); err != nil || a.Value().Seq != uint8(w) {
					return fmt.Errorf("worker %d: ack round trip: %v", w, err)
				}
				pkt, err = c.EncodePacket(uint8(w), payloads[0])
				if err != nil {
					return err
				}
				if p, err := c.DecodePacket(pkt); err != nil || p.Value().Seq != uint8(w) {
					return fmt.Errorf("worker %d: map-path packet round trip: %v", w, err)
				}

				ic, err := ipv4.NewCodec()
				if err != nil {
					return err
				}
				enc, err := ic.AppendEncode(nil, hdr)
				if err != nil {
					return err
				}
				encoded[w] = enc
				h, _, err := ic.DecodeInPlace(append([]byte(nil), enc...))
				if err != nil || h.Value().Source != hdr.Source || h.Value().TotalLength != hdr.TotalLength {
					return fmt.Errorf("worker %d: ipv4 round trip: %v", w, err)
				}
				if menc, err := ic.Encode(hdr); err != nil || !bytes.Equal(menc, enc) {
					return fmt.Errorf("worker %d: ipv4 map-path encode differs: %v", w, err)
				}
				if h, _, err := ic.Decode(enc); err != nil || h.Value().Destination != hdr.Destination {
					return fmt.Errorf("worker %d: ipv4 map-path decode: %v", w, err)
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for w := 1; w < workers; w++ {
		if !bytes.Equal(encoded[w], encoded[0]) {
			t.Fatalf("worker %d encoded a different IPv4 header", w)
		}
	}
}
