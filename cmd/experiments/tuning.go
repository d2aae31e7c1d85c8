package main

// This file is E8's probe/response driver, the paper's third §1.1
// behavioural hook: "tuning protocol operation for improved performance
// … adaptation of protocol timers to reduce overhead in dynamic MANET
// routing [5]". It compares fixed timers with an adaptive one across RTT
// regimes over the simulator. The adaptive policy is arq.RTO, the
// RFC 6298 estimator (SRTT/RTTVAR smoothing, exponential backoff) that
// the window engines and the session client ship; the probe driver
// applies Karn's rule. Policies and probe runs are single-owner inside
// their simulator's event loop.

import (
	"errors"
	"fmt"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// timerPolicy chooses the probe timeout; the two implementations are the
// E8 comparanda.
type timerPolicy interface {
	// Timeout returns the deadline to arm for the next probe.
	Timeout() time.Duration
	// OnSample feeds a clean RTT sample (not called for retransmitted
	// probes, per Karn).
	OnSample(rtt time.Duration)
	// OnTimeout signals that the probe timed out.
	OnTimeout()
	// Name identifies the policy in results.
	Name() string
}

// fixedTimer always waits the same duration — the baseline.
type fixedTimer struct{ D time.Duration }

// Timeout implements timerPolicy.
func (f fixedTimer) Timeout() time.Duration { return f.D }

// OnSample implements timerPolicy.
func (fixedTimer) OnSample(time.Duration) {}

// OnTimeout implements timerPolicy.
func (fixedTimer) OnTimeout() {}

// Name implements timerPolicy.
func (f fixedTimer) Name() string { return fmt.Sprintf("fixed(%s)", f.D) }

// adaptiveTimer adapts through arq.RTO, the RFC 6298 estimator that the
// window engines and the session client run.
type adaptiveTimer struct{ R *arq.RTO }

// newAdaptiveTimer builds an adaptive policy with the given initial RTO
// and clamp bounds; arq clamps an initial RTO outside [min, max].
func newAdaptiveTimer(initial, min, max time.Duration) (adaptiveTimer, error) {
	r, err := arq.NewRTO(arq.FlowConfig{RTO: initial, Adaptive: true, MinRTO: min, MaxRTO: max}, obs.Of(nil))
	if err != nil {
		return adaptiveTimer{}, fmt.Errorf("e8: %w", err)
	}
	return adaptiveTimer{R: r}, nil
}

// Timeout implements timerPolicy.
func (a adaptiveTimer) Timeout() time.Duration { return a.R.Current() }

// OnSample implements timerPolicy.
func (a adaptiveTimer) OnSample(rtt time.Duration) { a.R.Ack(rtt, true) }

// OnTimeout implements timerPolicy.
func (a adaptiveTimer) OnTimeout() { a.R.Backoff() }

// Name implements timerPolicy.
func (adaptiveTimer) Name() string { return "adaptive(rfc6298)" }

// rttRegime schedules the link's delay over the run: Delays[i] holds for
// ProbesPerPhase probes.
type rttRegime struct {
	Name           string
	Delays         []time.Duration
	Jitter         time.Duration
	ProbesPerPhase int
}

// stableRegime returns a constant-RTT schedule.
func stableRegime(d time.Duration, probes int) rttRegime {
	return rttRegime{Name: "stable", Delays: []time.Duration{d}, ProbesPerPhase: probes}
}

// stepRegime returns a schedule that steps between delays — the regime
// where fixed timers go spurious.
func stepRegime(probesPerPhase int, delays ...time.Duration) rttRegime {
	return rttRegime{Name: "step", Delays: delays, ProbesPerPhase: probesPerPhase}
}

// volatileRegime returns a jittery schedule.
func volatileRegime(base, jitter time.Duration, probes int) rttRegime {
	return rttRegime{Name: "volatile", Delays: []time.Duration{base}, Jitter: jitter, ProbesPerPhase: probes}
}

// probeConfig parameterises a timer experiment run.
type probeConfig struct {
	Regime rttRegime
	Policy timerPolicy
	// LossProb is genuine probe loss (each direction).
	LossProb float64
	// MaxRetries bounds retransmissions per probe.
	MaxRetries int
	Seed       int64
}

// probeResult reports the run.
type probeResult struct {
	Policy string
	Regime string
	Probes int
	// Completed probes (acknowledged, possibly after retransmission).
	Completed int
	// Retransmits is the total retransmission count — protocol overhead.
	Retransmits int
	// Spurious counts retransmissions that fired while the original
	// response was still in flight and did arrive — pure waste caused by
	// a too-short timer (ref [5]'s "overhead" in dynamic conditions).
	Spurious int
	// GaveUp counts probes that exhausted MaxRetries.
	GaveUp int
	// TotalTime is the virtual time for the whole run.
	TotalTime time.Duration
	// MeanLatency is the average time from first transmission to
	// completion over completed probes.
	MeanLatency time.Duration
}

// runProbes executes the probe/response experiment: one endpoint sends
// sequence-numbered probes, the responder echoes them, and the policy's
// timer drives retransmission. Deterministic in probeConfig.
func runProbes(cfg probeConfig) (*probeResult, error) {
	if cfg.Policy == nil {
		return nil, errors.New("e8: no timer policy")
	}
	if len(cfg.Regime.Delays) == 0 || cfg.Regime.ProbesPerPhase <= 0 {
		return nil, errors.New("e8: empty RTT regime")
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 8
	}

	sim := netsim.New(cfg.Seed)
	client, err := sim.NewEndpoint("client")
	if err != nil {
		return nil, err
	}
	server, err := sim.NewEndpoint("server")
	if err != nil {
		return nil, err
	}
	sim.Connect(client, server, netsim.LinkParams{}) // applyPhase sets them per probe

	server.SetHandler(func(from netsim.Addr, data []byte) {
		_ = server.Send(from, data) // echo
	})

	totalProbes := len(cfg.Regime.Delays) * cfg.Regime.ProbesPerPhase
	r := &proberun{
		cfg: cfg, sim: sim, client: client, server: server.Addr(),
		res: &probeResult{Policy: cfg.Policy.Name(), Regime: cfg.Regime.Name, Probes: totalProbes},
	}
	r.next()
	if err := sim.RunUntilIdle(totalProbes*(cfg.MaxRetries+4)*4 + 1000); err != nil {
		return nil, fmt.Errorf("e8: %w", err)
	}
	r.res.TotalTime = sim.Now()
	if r.res.Completed > 0 {
		r.res.MeanLatency = r.latencySum / time.Duration(r.res.Completed)
	}
	return r.res, nil
}

type proberun struct {
	cfg    probeConfig
	sim    *netsim.Sim
	client *netsim.Endpoint
	server netsim.Addr
	res    *probeResult

	probe        int
	attempt      int
	start        time.Duration
	timer        netsim.Timer
	acked        bool
	retransmited bool
	latencySum   time.Duration
}

// applyPhase updates the link delay for the current probe's phase.
func (r *proberun) applyPhase() {
	phase := r.probe / r.cfg.Regime.ProbesPerPhase
	if phase >= len(r.cfg.Regime.Delays) {
		phase = len(r.cfg.Regime.Delays) - 1
	}
	d := r.cfg.Regime.Delays[phase] / 2
	p := netsim.LinkParams{Delay: d, Jitter: r.cfg.Regime.Jitter / 2, LossProb: r.cfg.LossProb}
	r.sim.SetLinkParams(r.client.Addr(), r.server, p)
	r.sim.SetLinkParams(r.server, r.client.Addr(), p)
}

func (r *proberun) next() {
	if r.probe >= r.res.Probes {
		return
	}
	r.applyPhase()
	r.attempt = 0
	r.acked = false
	r.retransmited = false
	r.start = r.sim.Now()
	r.client.SetHandler(r.onResponse)
	r.transmit()
}

func (r *proberun) transmit() {
	payload := []byte{
		byte(r.probe >> 8), byte(r.probe), byte(r.attempt),
	}
	_ = r.client.Send(r.server, payload)
	r.timer = r.sim.After(r.cfg.Policy.Timeout(), r.onTimeout)
}

func (r *proberun) onResponse(_ netsim.Addr, data []byte) {
	if len(data) != 3 {
		return
	}
	probe := int(data[0])<<8 | int(data[1])
	if probe != r.probe || r.acked {
		return // a previous probe's response, or a duplicate after completion
	}
	r.acked = true
	if r.timer != nil {
		r.timer.Cancel()
	}
	if r.retransmited {
		// The probe completed, but only after retransmitting. If the
		// arriving response answers attempt 0, the original was alive all
		// along: every retransmission of this probe was spurious.
		if data[2] == 0 {
			r.res.Spurious += r.attempt
		}
	} else {
		r.cfg.Policy.OnSample(r.sim.Now() - r.start) // Karn: clean sample only
	}
	r.res.Completed++
	r.latencySum += r.sim.Now() - r.start
	r.probe++
	r.next()
}

func (r *proberun) onTimeout() {
	if r.acked {
		return
	}
	if r.attempt >= r.cfg.MaxRetries {
		r.res.GaveUp++
		r.probe++
		r.next()
		return
	}
	r.attempt++
	r.retransmited = true
	r.res.Retransmits++
	r.cfg.Policy.OnTimeout()
	r.transmit()
}
