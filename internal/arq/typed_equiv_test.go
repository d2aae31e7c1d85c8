package arq_test

import (
	"bytes"
	"testing"
	"time"

	"protodsl/internal/arq"
	gen "protodsl/internal/arq/gen"
	"protodsl/internal/netsim"
)

// TestTypedTransferEquivalence: the typed-state implementation generated
// from arq.pdsl and the fsm interpreter behave identically on identical
// seeds over a lossy, duplicating and corrupting link.
func TestTypedTransferEquivalence(t *testing.T) {
	payloads := make([][]byte, 15)
	for i := range payloads {
		payloads[i] = make([]byte, 24)
		for j := range payloads[i] {
			payloads[i][j] = byte(i + j)
		}
	}
	for _, loss := range []float64{0, 0.15, 0.35} {
		cfg := arq.Config{
			Seed: 7,
			Link: netsim.LinkParams{
				Delay: time.Millisecond, LossProb: loss, DupProb: 0.05, CorruptProb: 0.05,
			},
			RTO: 15 * time.Millisecond, MaxRetries: 40,
		}
		interp, err := arq.RunTransfer(cfg, payloads)
		if err != nil {
			t.Fatal(err)
		}
		typed, err := gen.RunTransfer(cfg, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if interp.OK != typed.OK || interp.SenderState != typed.SenderState {
			t.Fatalf("loss=%.2f: interp (%v,%s) != typed (%v,%s)",
				loss, interp.OK, interp.SenderState, typed.OK, typed.SenderState)
		}
		if len(interp.Delivered) != len(typed.Delivered) {
			t.Fatalf("loss=%.2f: delivered %d vs %d", loss, len(interp.Delivered), len(typed.Delivered))
		}
		for i := range interp.Delivered {
			if !bytes.Equal(interp.Delivered[i], typed.Delivered[i]) {
				t.Fatalf("loss=%.2f: delivery %d differs between implementations", loss, i)
			}
		}
		if interp.Sender.PacketsSent != typed.Sender.PacketsSent ||
			interp.Sender.Retransmits != typed.Sender.Retransmits {
			t.Errorf("loss=%.2f: sender stats differ: %+v vs %+v",
				loss, interp.Sender, typed.Sender)
		}
	}
}
