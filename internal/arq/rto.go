package arq

import (
	"time"

	"protodsl/internal/obs"
)

// This file implements the adaptive retransmission timeout shared by
// both window engines (DESIGN.md §13). The estimator is RFC 6298
// restated in the engines' vocabulary:
//
//	first sample:  SRTT = R,              RTTVAR = R/2
//	after:         RTTVAR = ¾·RTTVAR + ¼·|SRTT − R|
//	               SRTT   = ⅞·SRTT   + ⅛·R
//	base RTO:      clamp(SRTT + max(G, 4·RTTVAR), MinRTO, MaxRTO)
//	on timeout:    armed RTO = base << shift, shift capped
//	on any ack:    shift = 0 (reset-on-ack, clean or not)
//
// Samples are the engines' existing Karn-filtered RTT observations —
// never a retransmitted packet — so retransmission ambiguity cannot
// poison the estimate; exponential backoff covers the window where
// Karn's rule starves the estimator of samples. The code is identical
// on the virtual-time and real-clock paths because it only ever sees
// time.Duration deltas from the Runtime seam.
//
// In fixed mode (FlowConfig.Adaptive false) every method is a no-op and
// Current returns the configured RTO, so both engines run the same
// call sites in both modes and fixed-mode event sequences stay
// byte-identical to the pre-estimator engines — the golden-trace pins
// depend on that.

const (
	// rtoGranularity is RFC 6298's clock granularity G, the variance
	// floor in base = SRTT + max(G, 4·RTTVAR): an RTT stream with no
	// measured variance still gets headroom above SRTT.
	rtoGranularity = time.Millisecond

	// rtoMaxShift caps exponential backoff at 2^6 = 64× base. MaxRTO
	// usually binds first; the shift cap keeps the doubling arithmetic
	// overflow-free regardless of configuration.
	rtoMaxShift = 6

	// Default clamp bounds when FlowConfig leaves them zero. The floor
	// guards against a transient sub-millisecond RTT estimate arming a
	// degenerate timer; the ceiling keeps a backed-off flow probing a
	// healed path within seconds, not minutes.
	defaultMinRTO = 5 * time.Millisecond
	defaultMaxRTO = 10 * time.Second
)

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// RTO is one sender's timeout estimator. The window engines hold it by
// value; the session client's handshake and teardown retransmissions
// ride the same estimator and backoff (DESIGN.md §14), and E8's driver
// measures it (cmd/experiments). Single-goroutine like everything else
// in an engine.
type RTO struct {
	adaptive bool
	fixed    time.Duration // fixed-mode RTO; also the adaptive initial RTO
	min, max time.Duration

	srtt    time.Duration
	rttvar  time.Duration
	sampled bool          // first sample seen (SRTT/RTTVAR valid)
	base    time.Duration // computed RTO before backoff
	shift   uint          // exponential backoff exponent

	obs *obs.Shard
}

// NewRTO builds an estimator from cfg (Window is irrelevant here and
// may be zero; RTO/Adaptive/MinRTO/MaxRTO have their usual meanings and
// defaults). sh receives the rto_backoffs counter and the RTO gauge.
func NewRTO(cfg FlowConfig, sh *obs.Shard) (*RTO, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	r := newRTO(&cfg, sh)
	return &r, nil
}

// newRTO builds the estimator from an applyDefaults'd config.
// Until the first sample the adaptive base is the configured RTO
// (clamped), mirroring RFC 6298's conservative initial timeout.
func newRTO(cfg *FlowConfig, sh *obs.Shard) RTO {
	r := RTO{
		adaptive: cfg.Adaptive, fixed: cfg.RTO,
		min: cfg.MinRTO, max: cfg.MaxRTO,
		obs: sh,
	}
	if r.adaptive {
		r.base = clampDur(cfg.RTO, r.min, r.max)
		r.publish()
	}
	return r
}

// Current returns the RTO to arm right now, backoff included.
func (r *RTO) Current() time.Duration {
	if !r.adaptive {
		return r.fixed
	}
	return clampDur(r.base<<r.shift, r.min, r.max)
}

// Ack feeds one acknowledgement of new data. rtt is the time since the
// acked packet first went out; clean says it was never retransmitted,
// so that rtt is a valid sample (Karn's rule) — the caller decides.
// A clean ack recomputes SRTT/RTTVAR and the base RTO. Every ack clears
// the backoff, clean or not: an ack of a retransmission still proves
// the path passes traffic again. RFC 6298 §5 would instead keep the
// backoff until a clean sample; that policy is decided here alone.
func (r *RTO) Ack(rtt time.Duration, clean bool) {
	if !r.adaptive {
		return
	}
	if !clean {
		if r.shift != 0 {
			r.shift = 0
			r.publish()
		}
		return
	}
	if rtt < 0 {
		rtt = 0
	}
	if !r.sampled {
		r.srtt, r.rttvar, r.sampled = rtt, rtt/2, true
	} else {
		dev := r.srtt - rtt
		if dev < 0 {
			dev = -dev
		}
		r.rttvar = (3*r.rttvar + dev) / 4
		r.srtt = (7*r.srtt + rtt) / 8
	}
	vv := 4 * r.rttvar
	if vv < rtoGranularity {
		vv = rtoGranularity
	}
	r.base = clampDur(r.srtt+vv, r.min, r.max)
	r.shift = 0
	r.publish()
}

// Backoff doubles the armed RTO after a retransmission timeout (capped
// by rtoMaxShift and MaxRTO) and counts the event.
func (r *RTO) Backoff() {
	if !r.adaptive {
		return
	}
	if r.shift < rtoMaxShift {
		r.shift++
	}
	r.obs.Inc(obs.RTOBackoffs)
	r.publish()
}

// publish surfaces the armed RTO through the shard gauge (one atomic
// store; the last engine to rearm wins on a shared shard).
func (r *RTO) publish() {
	r.obs.SetGauge(obs.GaugeRTO, int64(r.Current()))
}
