package arq

import (
	"testing"
	"time"

	"protodsl/internal/obs"
)

func adaptiveCfg(t *testing.T, mutate func(*FlowConfig)) FlowConfig {
	t.Helper()
	cfg := FlowConfig{Adaptive: true}
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestRTOFixedModeIsInert(t *testing.T) {
	cfg := FlowConfig{RTO: 20 * time.Millisecond}
	if err := cfg.applyDefaults(); err != nil {
		t.Fatal(err)
	}
	st := obs.New(1, 0)
	r := newRTO(&cfg, st.Shard(0))
	r.Ack(time.Millisecond, true)
	r.Backoff()
	r.Backoff()
	r.Ack(0, false)
	if got := r.Current(); got != 20*time.Millisecond {
		t.Fatalf("fixed mode current = %s, want the configured 20ms", got)
	}
	if st.Total(obs.RTOBackoffs) != 0 {
		t.Fatal("fixed mode counted a backoff")
	}
	if st.Shard(0).Gauge(obs.GaugeRTO) != 0 {
		t.Fatal("fixed mode published the RTO gauge")
	}
}

func TestRTOFirstSampleSeedsEstimator(t *testing.T) {
	cfg := adaptiveCfg(t, nil)
	r := newRTO(&cfg, obs.Of(nil))
	if got := r.Current(); got != cfg.RTO {
		t.Fatalf("pre-sample current = %s, want initial RTO %s", got, cfg.RTO)
	}
	// RFC 6298 first sample: SRTT = R, RTTVAR = R/2, so
	// base = R + 4·(R/2) = 3R (variance term above the 1ms floor).
	r.Ack(10*time.Millisecond, true)
	if got := r.Current(); got != 30*time.Millisecond {
		t.Fatalf("after first 10ms sample current = %s, want 30ms", got)
	}
	// Second sample pins both gains: RTTVAR = (3·5 + |10−50|)/4 = 13.75ms,
	// SRTT = (7·10 + 50)/8 = 15ms, so base = 15 + 4·13.75 = 70ms.
	r.Ack(50*time.Millisecond, true)
	if got := r.Current(); got != 70*time.Millisecond {
		t.Fatalf("after a 50ms second sample current = %s, want 70ms", got)
	}
}

func TestRTOConvergesOnSteadyRTT(t *testing.T) {
	cfg := adaptiveCfg(t, nil)
	r := newRTO(&cfg, obs.Of(nil))
	const rtt = 10 * time.Millisecond
	for i := 0; i < 100; i++ {
		r.Ack(rtt, true)
	}
	// RTTVAR decays geometrically on constant samples, so the variance
	// term bottoms out at the granularity floor: current → RTT + G.
	want := rtt + rtoGranularity
	if got := r.Current(); got < rtt || got > want+2*time.Millisecond {
		t.Fatalf("steady 10ms RTT converged to %s, want ≈ %s", got, want)
	}
}

// TestRTOTracksIncrease steps the RTT from 20 to 120 ms: within as many
// samples as it took to settle on 20 ms, the armed RTO must rise above
// the new RTT, or every probe after the step would time out spuriously.
func TestRTOTracksIncrease(t *testing.T) {
	r, err := NewRTO(FlowConfig{
		RTO: 100 * time.Millisecond, Adaptive: true,
		MinRTO: 10 * time.Millisecond, MaxRTO: time.Minute,
	}, obs.Of(nil))
	if err != nil {
		t.Fatal(err)
	}
	const samples = 20
	for i := 0; i < samples; i++ {
		r.Ack(20*time.Millisecond, true)
	}
	low := r.Current()
	for i := 0; i < samples; i++ {
		r.Ack(120*time.Millisecond, true)
	}
	if got := r.Current(); got <= 120*time.Millisecond {
		t.Fatalf("RTO after %d samples of a 20→120ms step = %s (was %s), want > 120ms", samples, got, low)
	}
}

func TestRTOBackoffDoublesAndCaps(t *testing.T) {
	st := obs.New(1, 0)
	cfg := adaptiveCfg(t, func(c *FlowConfig) { c.MaxRTO = time.Hour })
	r := newRTO(&cfg, st.Shard(0))
	r.Ack(10*time.Millisecond, true) // base = 30ms
	base := r.Current()
	for i := 1; i <= rtoMaxShift; i++ {
		r.Backoff()
		if got, want := r.Current(), base<<uint(i); got != want {
			t.Fatalf("after %d backoffs current = %s, want %s", i, got, want)
		}
	}
	// Past the shift cap the armed RTO stops growing (but is still counted).
	capped := r.Current()
	r.Backoff()
	r.Backoff()
	if got := r.Current(); got != capped {
		t.Fatalf("backoff past the cap grew the RTO: %s, want %s", got, capped)
	}
	if got := st.Total(obs.RTOBackoffs); got != rtoMaxShift+2 {
		t.Fatalf("RTOBackoffs = %d, want %d (every backoff counted)", got, rtoMaxShift+2)
	}
	// MaxRTO binds before the shift cap when configured tighter.
	tight := adaptiveCfg(t, func(c *FlowConfig) { c.MaxRTO = 50 * time.Millisecond })
	r2 := newRTO(&tight, obs.Of(nil))
	r2.Ack(10*time.Millisecond, true)
	for i := 0; i < 10; i++ {
		r2.Backoff()
	}
	if got := r2.Current(); got != 50*time.Millisecond {
		t.Fatalf("backoff exceeded MaxRTO: %s", got)
	}
}

func TestRTOResetOnAck(t *testing.T) {
	cfg := adaptiveCfg(t, nil)
	r := newRTO(&cfg, obs.Of(nil))
	r.Ack(10*time.Millisecond, true)
	base := r.Current()
	r.Backoff()
	r.Backoff()
	if r.Current() != base<<2 {
		t.Fatalf("two backoffs: current = %s, want %s", r.Current(), base<<2)
	}
	// An ack without a valid sample (Karn-suppressed retransmit ack):
	// backoff clears, estimator state survives.
	r.Ack(0, false)
	if got := r.Current(); got != base {
		t.Fatalf("a non-clean ack did not reset backoff: %s, want %s", got, base)
	}
	// A valid sample also clears backoff and re-estimates.
	r.Backoff()
	r.Ack(10*time.Millisecond, true)
	if got := r.Current(); got >= base<<1 {
		t.Fatalf("a clean ack did not reset backoff: %s", got)
	}
}

func TestRTOClampBounds(t *testing.T) {
	cfg := adaptiveCfg(t, func(c *FlowConfig) {
		c.MinRTO = 20 * time.Millisecond
		c.MaxRTO = 100 * time.Millisecond
	})
	r := newRTO(&cfg, obs.Of(nil))
	r.Ack(time.Millisecond, true) // base would be ~4ms unclamped
	if got := r.Current(); got != 20*time.Millisecond {
		t.Fatalf("MinRTO floor: current = %s, want 20ms", got)
	}
	r.Ack(time.Second, true) // base would be seconds unclamped
	if got := r.Current(); got != 100*time.Millisecond {
		t.Fatalf("MaxRTO ceiling: current = %s, want 100ms", got)
	}
	// Negative samples clamp to zero instead of corrupting the filter.
	r.Ack(-time.Second, true)
	if got := r.Current(); got < 20*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("negative sample escaped the clamp: %s", got)
	}
}

func TestRTOInvalidBoundsRejected(t *testing.T) {
	cfg := FlowConfig{Adaptive: true, MinRTO: time.Second, MaxRTO: time.Millisecond}
	if err := cfg.applyDefaults(); err == nil {
		t.Fatal("inverted MinRTO/MaxRTO accepted")
	}
}

func TestRTOPublishesGauge(t *testing.T) {
	st := obs.New(1, 0)
	cfg := adaptiveCfg(t, nil)
	r := newRTO(&cfg, st.Shard(0))
	if got := st.Shard(0).Gauge(obs.GaugeRTO); got != int64(cfg.RTO) {
		t.Fatalf("initial gauge = %d, want %d", got, int64(cfg.RTO))
	}
	r.Ack(10*time.Millisecond, true)
	if got := st.Shard(0).Gauge(obs.GaugeRTO); got != int64(30*time.Millisecond) {
		t.Fatalf("post-sample gauge = %d, want 30ms", got)
	}
	r.Backoff()
	if got := st.Shard(0).Gauge(obs.GaugeRTO); got != int64(60*time.Millisecond) {
		t.Fatalf("post-backoff gauge = %d, want 60ms", got)
	}
}
