package arq

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
)

// These tests hold the stop-and-wait engines, which run the flat
// machines and codec generated from arq.pdsl, to the interpreter
// reference of reference_test.go: on identical Config and payloads the
// two must produce the same Result — outcome, final sender state,
// deliveries, virtual duration, every sender and receiver counter, the
// network statistics and the observability snapshot.

// equalResults fails unless the engines' Result equals the reference's.
func equalResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	t.Errorf("%s: generated and interpreter transfers diverge", label)
	if got.OK != want.OK || got.SenderState != want.SenderState || got.Duration != want.Duration {
		t.Errorf("  ok/state/duration: generated %v/%s/%s, interpreter %v/%s/%s",
			got.OK, got.SenderState, got.Duration, want.OK, want.SenderState, want.Duration)
	}
	if !reflect.DeepEqual(got.Delivered, want.Delivered) {
		t.Errorf("  delivered %d payloads, interpreter %d (or contents differ)", len(got.Delivered), len(want.Delivered))
	}
	if got.Sender != want.Sender || got.Receiver != want.Receiver {
		t.Errorf("  stats: generated %+v %+v, interpreter %+v %+v", got.Sender, got.Receiver, want.Sender, want.Receiver)
	}
	if got.Network != want.Network {
		t.Errorf("  network: generated %+v, interpreter %+v", got.Network, want.Network)
	}
	if !reflect.DeepEqual(got.Obs, want.Obs) {
		t.Errorf("  obs snapshots differ")
	}
}

// runBoth runs one transfer on the engines and on the reference.
func runBoth(t *testing.T, cfg Config, payloads [][]byte) (got, want *Result) {
	t.Helper()
	got, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	want, err = runReferenceTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// TestGeneratedEquivalentToInterpreter: the generated machines and the
// fsm interpreter produce identical transfers on identical seeds over
// duplicating, corrupting and fault-injected links.
func TestGeneratedEquivalentToInterpreter(t *testing.T) {
	oneByte := make([][]byte, 15)
	for i := range oneByte {
		oneByte[i] = []byte{byte(i)}
	}
	wide := makePayloads(15, 24)
	bursty := &faults.Schedule{
		Seed:    3,
		Gilbert: &faults.GilbertElliott{PGoodBad: 0.1, PBadGood: 0.3, LossBad: 0.9},
		Events: []faults.Event{
			{Kind: faults.Partition, From: 30 * time.Millisecond, Until: 80 * time.Millisecond},
			{Kind: faults.JitterRamp, From: 100 * time.Millisecond, Until: 200 * time.Millisecond, Extra: 3 * time.Millisecond},
		},
	}
	cases := []struct {
		seed     int64
		payloads [][]byte
		losses   []float64
		dup      float64
		corrupt  float64
		rto      time.Duration
		faults   *faults.Schedule
	}{
		{seed: 11, payloads: oneByte, losses: []float64{0, 0.2, 0.4}, dup: 0.1, rto: 12 * time.Millisecond},
		{seed: 7, payloads: wide, losses: []float64{0, 0.15, 0.35}, dup: 0.05, corrupt: 0.05, rto: 15 * time.Millisecond},
		{seed: 5, payloads: wide, losses: []float64{0, 0.1}, corrupt: 0.05, rto: 10 * time.Millisecond, faults: bursty},
	}
	for _, c := range cases {
		for _, loss := range c.losses {
			cfg := Config{
				Seed: c.seed,
				Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: loss, DupProb: c.dup, CorruptProb: c.corrupt},
				RTO:  c.rto, MaxRetries: 40, Faults: c.faults,
			}
			got, want := runBoth(t, cfg, c.payloads)
			label := fmt.Sprintf("seed=%d loss=%.2f faults=%v", c.seed, loss, c.faults != nil)
			equalResults(t, label, got, want)
			t.Logf("%s: %s, %d packets, %d retransmits", label, got.SenderState, got.Sender.PacketsSent, got.Sender.Retransmits)
		}
	}
}

// TestTypedTransferEquivalence sweeps seeds over a link with every
// impairment the simulator has — loss, duplication, corruption,
// reordering and jitter — and a retry budget small enough that some
// transfers end in Timeout, so both outcomes are compared.
func TestTypedTransferEquivalence(t *testing.T) {
	payloads := makePayloads(20, 32)
	for seed := int64(0); seed < 20; seed++ {
		cfg := Config{
			Seed: seed,
			Link: netsim.LinkParams{
				Delay: time.Millisecond, Jitter: 500 * time.Microsecond, LossProb: 0.3,
				DupProb: 0.1, CorruptProb: 0.1, ReorderProb: 0.1, ReorderDelay: 3 * time.Millisecond,
			},
			RTO: 6 * time.Millisecond, MaxRetries: 3,
		}
		got, want := runBoth(t, cfg, payloads)
		equalResults(t, fmt.Sprintf("seed=%d", seed), got, want)
	}
}

// TestGeneratedTransferOverLossyLink: a transfer on the generated
// machines survives loss, duplication and corruption and delivers every
// payload intact and in order.
func TestGeneratedTransferOverLossyLink(t *testing.T) {
	payloads := make([][]byte, 25)
	for i := range payloads {
		payloads[i] = []byte{byte(i), byte(i + 1), byte(i + 2)}
	}
	cfg := Config{
		Seed: 5,
		Link: netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.2, DupProb: 0.05, CorruptProb: 0.05},
		RTO:  15 * time.Millisecond, MaxRetries: 50,
	}
	res, err := RunTransfer(cfg, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.SenderState != StSent {
		t.Fatalf("generated transfer failed in state %s", res.SenderState)
	}
	if len(res.Delivered) != len(payloads) {
		t.Fatalf("delivered %d/%d", len(res.Delivered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
}
