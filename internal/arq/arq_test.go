package arq

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"protodsl/internal/fsm"
	"protodsl/internal/netsim"
	"protodsl/internal/wire"
)

func makePayloads(n, size int) [][]byte {
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

func TestSpecsPassStaticCheck(t *testing.T) {
	for _, spec := range []*fsm.Spec{SenderSpec(), ReceiverSpec()} {
		report := fsm.Check(spec)
		if !report.OK() {
			for _, i := range report.Issues {
				t.Logf("%s: %s", spec.Name, i)
			}
			t.Errorf("spec %s failed the static checker", spec.Name)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.EncodePacket(3, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	pkt, err := c.DecodePacket(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !pkt.Valid() {
		t.Error("decoded packet carries no witness")
	}
	if pkt.Value().Seq != 3 || string(pkt.Value().Payload) != "payload" {
		t.Errorf("decoded %+v", pkt.Value())
	}
	if !pkt.Certificate().Establishes("checksum-verified") {
		t.Error("certificate missing checksum-verified")
	}

	aenc, err := c.EncodeAck(9)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := c.DecodeAck(aenc)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Value().Seq != 9 {
		t.Errorf("ack seq = %d", ack.Value().Seq)
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := c.EncodePacket(1, []byte{10, 20, 30})
	enc[len(enc)-1] ^= 0x80
	if _, err := c.DecodePacket(enc); !errors.Is(err, wire.ErrChecksumMismatch) {
		t.Errorf("err = %v, want checksum mismatch", err)
	}
}

func TestTransferPerfectLink(t *testing.T) {
	payloads := makePayloads(20, 64)
	res, err := RunTransfer(Config{Seed: 1, Link: netsim.LinkParams{Delay: time.Millisecond}}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.SenderState != StSent {
		t.Fatalf("transfer failed: state=%s", res.SenderState)
	}
	if len(res.Delivered) != len(payloads) {
		t.Fatalf("delivered %d/%d", len(res.Delivered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d corrupted", i)
		}
	}
	if res.Sender.Retransmits != 0 {
		t.Errorf("retransmits on a perfect link: %d", res.Sender.Retransmits)
	}
	if res.Receiver.Duplicates != 0 {
		t.Errorf("duplicates on a perfect link: %d", res.Receiver.Duplicates)
	}
}

// The cancelled-timer regression (ISSUE 2 satellite 1): a transfer's
// Duration must equal the delivery time of the final ack. Stop-and-wait
// over a perfect link with delay D completes one payload per 2D: send at
// t, data at t+D, ack at t+2D, next send in the same instant — so n
// payloads end at exactly 2*n*D. Before the event-core fix the sender's
// cancelled retransmission timer stayed in the heap and dragged Now (and
// thus Duration) one RTO past the final ack.
func TestTransferDurationIsFinalAckDelivery(t *testing.T) {
	const d = 2 * time.Millisecond
	const rto = 100 * time.Millisecond
	for _, n := range []int{1, 5, 30} {
		res, err := RunTransfer(Config{
			Seed: 1,
			Link: netsim.LinkParams{Delay: d},
			RTO:  rto,
		}, makePayloads(n, 16))
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("n=%d: transfer failed", n)
		}
		want := time.Duration(2*n) * d
		if res.Duration != want {
			t.Errorf("n=%d: Duration = %s, want exactly %s (final ack delivery, not +RTO)",
				n, res.Duration, want)
		}
	}
}

// TestE5LossSweep is the heart of experiment E5: at every loss rate the
// protocol either delivers everything exactly once, in order, with the
// sender ending in Sent — or gives up with the sender in Timeout. No
// other outcome is possible (§3.4 guarantees 2–4).
func TestE5LossSweep(t *testing.T) {
	payloads := makePayloads(30, 32)
	for _, loss := range []float64{0, 0.05, 0.1, 0.2, 0.5} {
		for seed := int64(0); seed < 5; seed++ {
			name := fmt.Sprintf("loss=%.2f/seed=%d", loss, seed)
			t.Run(name, func(t *testing.T) {
				res, err := RunTransfer(Config{
					Seed: seed,
					Link: netsim.LinkParams{
						Delay:    2 * time.Millisecond,
						LossProb: loss,
						DupProb:  0.05,
					},
					RTO:        20 * time.Millisecond,
					MaxRetries: 50,
				}, payloads)
				if err != nil {
					t.Fatal(err)
				}
				if res.SenderState != StSent && res.SenderState != StTimeout {
					t.Fatalf("sender ended in %q — inconsistent end state", res.SenderState)
				}
				if res.OK {
					if len(res.Delivered) != len(payloads) {
						t.Fatalf("OK but delivered %d/%d", len(res.Delivered), len(payloads))
					}
					for i := range payloads {
						if !bytes.Equal(res.Delivered[i], payloads[i]) {
							t.Fatalf("payload %d wrong: exactly-once in-order violated", i)
						}
					}
				} else {
					// Even on failure, whatever was delivered is an
					// in-order prefix, delivered exactly once.
					if len(res.Delivered) > len(payloads) {
						t.Fatalf("delivered more than sent")
					}
					for i := range res.Delivered {
						if !bytes.Equal(res.Delivered[i], payloads[i]) {
							t.Fatalf("delivered[%d] is not the in-order prefix", i)
						}
					}
				}
			})
		}
	}
}

func TestTransferWithCorruption(t *testing.T) {
	payloads := makePayloads(20, 48)
	res, err := RunTransfer(Config{
		Seed: 3,
		Link: netsim.LinkParams{
			Delay:       time.Millisecond,
			CorruptProb: 0.2,
		},
		RTO:        10 * time.Millisecond,
		MaxRetries: 100,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("transfer failed under corruption: %s", res.SenderState)
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d corrupted end-to-end: checksum discipline failed", i)
		}
	}
	if res.Receiver.PacketsCorrupted+res.Sender.AcksCorrupted == 0 {
		t.Error("no corruption observed at 20% corrupt probability — test is vacuous")
	}
}

func TestTransferTotalLossTimesOut(t *testing.T) {
	res, err := RunTransfer(Config{
		Seed:       1,
		Link:       netsim.LinkParams{LossProb: 1.0},
		RTO:        5 * time.Millisecond,
		MaxRetries: 3,
	}, makePayloads(2, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("transfer succeeded over a dead link")
	}
	if res.SenderState != StTimeout {
		t.Fatalf("sender state = %s, want Timeout (the declared failure end state)", res.SenderState)
	}
	if len(res.Delivered) != 0 {
		t.Errorf("delivered %d payloads over a dead link", len(res.Delivered))
	}
	// 1 original + 3 retries per the bound.
	if res.Sender.PacketsSent != 4 {
		t.Errorf("packets sent = %d, want 4 (1 + MaxRetries)", res.Sender.PacketsSent)
	}
}

func TestTransferReordering(t *testing.T) {
	payloads := makePayloads(25, 16)
	res, err := RunTransfer(Config{
		Seed: 11,
		Link: netsim.LinkParams{
			Delay:        time.Millisecond,
			ReorderProb:  0.3,
			ReorderDelay: 8 * time.Millisecond,
		},
		RTO:        20 * time.Millisecond,
		MaxRetries: 50,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("transfer failed under reordering: %s", res.SenderState)
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("in-order delivery violated at %d under reordering", i)
		}
	}
}

func TestTransferDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 99,
		Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.2, DupProb: 0.1},
		RTO:  10 * time.Millisecond, MaxRetries: 30,
	}
	payloads := makePayloads(10, 10)
	a, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Sender != b.Sender || a.Network != b.Network {
		t.Error("same config, different outcomes: determinism broken")
	}
}

func TestSeqWrapAcross256Payloads(t *testing.T) {
	// More payloads than the 8-bit sequence space: stop-and-wait only
	// needs adjacent-seq disambiguation, so wrap must be harmless.
	payloads := makePayloads(300, 4)
	res, err := RunTransfer(Config{
		Seed: 2,
		Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.1},
		RTO:  10 * time.Millisecond, MaxRetries: 30,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("wrap transfer failed: %s", res.SenderState)
	}
	if len(res.Delivered) != 300 {
		t.Fatalf("delivered %d/300", len(res.Delivered))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d wrong after seq wrap", i)
		}
	}
}

func TestEmptyTransfer(t *testing.T) {
	res, err := RunTransfer(Config{Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.SenderState != StSent || len(res.Delivered) != 0 {
		t.Errorf("empty transfer: ok=%v state=%s delivered=%d", res.OK, res.SenderState, len(res.Delivered))
	}
}

func TestEmptyPayloadTransfer(t *testing.T) {
	res, err := RunTransfer(Config{Seed: 1}, [][]byte{{}, {1}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 3 {
		t.Fatalf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
	if len(res.Delivered[0]) != 0 || len(res.Delivered[2]) != 0 {
		t.Error("empty payloads not preserved")
	}
}

// Property-based E5: for random (seed, loss, payload count), the protocol
// invariants hold — consistent end state and exactly-once in-order
// delivery of a prefix.
func TestQuickTransferInvariants(t *testing.T) {
	f := func(seed int64, lossPct, n uint8) bool {
		loss := float64(lossPct%60) / 100 // 0..59%
		count := int(n%20) + 1
		payloads := makePayloads(count, 8)
		res, err := RunTransfer(Config{
			Seed: seed,
			Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: loss, DupProb: 0.05},
			RTO:  10 * time.Millisecond, MaxRetries: 40,
		}, payloads)
		if err != nil {
			return false
		}
		if res.SenderState != StSent && res.SenderState != StTimeout {
			return false
		}
		if res.OK != (res.SenderState == StSent) {
			return false
		}
		if len(res.Delivered) > len(payloads) {
			return false
		}
		for i := range res.Delivered {
			if !bytes.Equal(res.Delivered[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGoodput(t *testing.T) {
	res := &Result{
		Delivered: [][]byte{make([]byte, 500), make([]byte, 500)},
		Duration:  time.Second,
	}
	if g := res.Goodput(); g != 1000 {
		t.Errorf("Goodput = %f, want 1000", g)
	}
	if g := (&Result{}).Goodput(); g != 0 {
		t.Errorf("zero-duration Goodput = %f", g)
	}
}
