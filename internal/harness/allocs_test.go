package harness

import (
	"testing"
	"time"

	"protodsl/internal/netsim"
)

// A windowed shard transfer (sim_multiflow's link, 8 flows x 400 x
// 64 B) allocates a bounded number of objects per delivered packet: the
// data and ack Send copies (go-back-N retransmits more of them) and the
// shard's setup spread over 3,200 packets, because every sender
// re-arms its timers in place (netsim.Rearm). A sender that went back
// to a fresh After per arm adds about one object per packet and fails
// this. The ceilings are the measured values plus 5 %; the shard is
// seeded, so the count repeats run to run.
func TestShardAllocsPerDeliveredPacket(t *testing.T) {
	for _, tc := range []struct {
		v       Variant
		ceiling float64
	}{
		{VariantGBN, 2.97}, // measured 2.830 (3.837 with an After per send)
		{VariantSR, 2.44},  // measured 2.323 (3.326)
	} {
		t.Run(tc.v.String(), func(t *testing.T) {
			cfg := MultiFlowConfig{
				Flows: 8, PayloadsPerFlow: 400, PayloadSize: 64,
				Variant: tc.v, Window: 16, RTO: 120 * time.Millisecond, MaxRetries: 60,
				Bottleneck: netsim.LinkParams{Delay: 2 * time.Millisecond, Bandwidth: 4 << 20, LossProb: 0.02},
				Seed:       1,
			}
			run := func() {
				if _, err := RunShard(cfg, 0); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the compiled specs
			perPkt := testing.AllocsPerRun(3, run) / float64(cfg.Flows*cfg.PayloadsPerFlow)
			t.Logf("%s: %.3f objects per delivered packet", tc.v, perPkt)
			if perPkt > tc.ceiling {
				t.Errorf("%s shard allocates %.3f objects per delivered packet, want <= %.3f", tc.v, perPkt, tc.ceiling)
			}
		})
	}
}
