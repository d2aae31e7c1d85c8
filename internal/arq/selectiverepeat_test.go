package arq

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/netsim"
)

func TestSRPerfectLink(t *testing.T) {
	payloads := makePayloads(50, 32)
	res, err := RunTransferSR(SRConfig{
		Seed: 1, Window: 8,
		Link: netsim.LinkParams{Delay: time.Millisecond},
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 50 {
		t.Fatalf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d mismatch", i)
		}
	}
	if res.Retransmits != 0 {
		t.Errorf("retransmits = %d on perfect link", res.Retransmits)
	}
}

func TestSRLossyInOrderExactlyOnce(t *testing.T) {
	payloads := makePayloads(60, 16)
	for seed := int64(0); seed < 4; seed++ {
		res, err := RunTransferSR(SRConfig{
			Seed: seed, Window: 6,
			Link:       netsim.LinkParams{Delay: 2 * time.Millisecond, LossProb: 0.15, DupProb: 0.05},
			RTO:        25 * time.Millisecond,
			MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK {
			t.Fatalf("seed %d: failed", seed)
		}
		if len(res.Delivered) != len(payloads) {
			t.Fatalf("seed %d: delivered %d/%d", seed, len(res.Delivered), len(payloads))
		}
		for i := range payloads {
			if !bytes.Equal(res.Delivered[i], payloads[i]) {
				t.Fatalf("seed %d: in-order exactly-once violated at %d", seed, i)
			}
		}
	}
}

// The point of selective repeat: under loss it retransmits only the lost
// packets, where go-back-N resends whole windows.
func TestSRRetransmitsLessThanGBNUnderLoss(t *testing.T) {
	payloads := makePayloads(80, 32)
	var srRetrans, gbnRetrans int
	for seed := int64(0); seed < 5; seed++ {
		link := netsim.LinkParams{Delay: 5 * time.Millisecond, LossProb: 0.2}
		sr, err := RunTransferSR(SRConfig{
			Seed: seed, Window: 16, Link: link,
			RTO: 40 * time.Millisecond, MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		gbn, err := RunTransferGBN(GBNConfig{
			Seed: seed, Window: 16, Link: link,
			RTO: 40 * time.Millisecond, MaxRetries: 60,
		}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if !sr.OK || !gbn.OK {
			t.Fatalf("seed %d: sr ok=%v gbn ok=%v", seed, sr.OK, gbn.OK)
		}
		srRetrans += sr.Retransmits
		gbnRetrans += gbn.Retransmits
	}
	if srRetrans >= gbnRetrans {
		t.Errorf("selective repeat retransmitted %d >= go-back-N %d under 20%% loss",
			srRetrans, gbnRetrans)
	}
}

func TestSRSeqWrap(t *testing.T) {
	payloads := makePayloads(300, 4)
	res, err := RunTransferSR(SRConfig{
		Seed: 2, Window: 16,
		Link:       netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.05},
		RTO:        20 * time.Millisecond,
		MaxRetries: 40,
	}, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 300 {
		t.Fatalf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
	for i := range payloads {
		if !bytes.Equal(res.Delivered[i], payloads[i]) {
			t.Fatalf("payload %d wrong after wrap", i)
		}
	}
}

func TestSRDeadLinkGivesUp(t *testing.T) {
	res, err := RunTransferSR(SRConfig{
		Seed: 1, Window: 4,
		Link:       netsim.LinkParams{LossProb: 1},
		RTO:        5 * time.Millisecond,
		MaxRetries: 3,
	}, makePayloads(8, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK || len(res.Delivered) != 0 {
		t.Errorf("ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
}

func TestSRWindowValidationAndEmpty(t *testing.T) {
	if _, err := RunTransferSR(SRConfig{Window: 128}, nil); err == nil {
		t.Error("window 128 accepted")
	}
	res, err := RunTransferSR(SRConfig{Seed: 1, Window: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || len(res.Delivered) != 0 {
		t.Errorf("empty: ok=%v delivered=%d", res.OK, len(res.Delivered))
	}
}

// Exact-duration pin for selective repeat: single packet, perfect link
// with delay D finishes at exactly 2D — the delivery time of the ack,
// with no trailing-RTO inflation from the cancelled per-packet timer.
func TestSRExactDurationNoTrailingRTO(t *testing.T) {
	const d = 3 * time.Millisecond
	res, err := RunTransferSR(SRConfig{
		Seed: 1, Window: 4,
		Link: netsim.LinkParams{Delay: d},
		RTO:  500 * time.Millisecond,
	}, makePayloads(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("transfer failed")
	}
	if res.Duration != 2*d {
		t.Errorf("Duration = %s, want exactly %s (ack delivery, no trailing RTO)", res.Duration, 2*d)
	}
}

// SRConfig parameterises a selective-repeat transfer.
type SRConfig struct {
	Link        netsim.LinkParams
	RTO         time.Duration
	Adaptive    bool // RFC-6298 adaptive RTO (see FlowConfig.Adaptive)
	MaxRetries  int  // per-packet retransmissions before giving up
	Window      int
	Seed        int64
	EventBudget int
	// Faults, if non-nil, layers the fault schedule over the link, one
	// private injector per direction (instance ids 0 and 1).
	Faults *faults.Schedule
}

// RunTransferSR runs a selective-repeat transfer over its own simulator.
// Window 0 selects 8.
func RunTransferSR(cfg SRConfig, payloads [][]byte) (*WindowResult, error) {
	fcfg := FlowConfig{Window: cfg.Window, RTO: cfg.RTO, MaxRetries: cfg.MaxRetries, Adaptive: cfg.Adaptive}
	if err := fcfg.applyDefaults(); err != nil {
		return nil, err
	}
	if cfg.EventBudget == 0 {
		cfg.EventBudget = 20000 + 100*len(payloads)*(fcfg.MaxRetries+2)
	}
	sim := netsim.New(cfg.Seed)
	sEP, err := sim.NewEndpoint("sender")
	if err != nil {
		return nil, err
	}
	rEP, err := sim.NewEndpoint("receiver")
	if err != nil {
		return nil, err
	}
	if err := connectWithFaults(sim, sEP, rEP, cfg.Link, cfg.Faults); err != nil {
		return nil, err
	}

	flow, err := StartSR(sim, sEP, rEP, fcfg, payloads)
	if err != nil {
		return nil, err
	}
	if err := sim.RunUntilIdle(cfg.EventBudget); err != nil {
		return nil, fmt.Errorf("arq sr: %w", err)
	}
	if err := flow.Err(); err != nil {
		return nil, err
	}
	return flow.Result(), nil
}
