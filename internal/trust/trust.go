// Package trust implements the paper's second §1.1 behavioural hook:
// "operation in untrusted communication environments … use of routing
// through secure, exploratory learning of forwarding behaviour [12]".
//
// A sender must move messages to a destination through relay nodes, a
// fraction of which are adversarial (silently dropping or corrupting
// traffic). The sender learns per-relay trust scores from end-to-end
// acknowledgement feedback and selects relays ε-greedily; the baseline
// picks relays uniformly at random. Experiment E7 sweeps the adversarial
// fraction and compares delivery rates.
//
// Concurrency: each experiment owns its simulator, relays and scores;
// run concurrent experiments on distinct Config values, never a shared
// one.
package trust

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/netsim"
	"protodsl/internal/wire"
)

// Behaviour classifies what a relay does with traffic.
type Behaviour int

// Relay behaviours.
const (
	// Honest relays forward faithfully.
	Honest Behaviour = iota + 1
	// Dropper relays silently discard a fraction of packets.
	Dropper
	// Corruptor relays flip payload bits in a fraction of packets.
	Corruptor
)

// String returns the behaviour name.
func (b Behaviour) String() string {
	switch b {
	case Honest:
		return "honest"
	case Dropper:
		return "dropper"
	case Corruptor:
		return "corruptor"
	default:
		return "unknown"
	}
}

// Strategy selects how the sender picks relays.
type Strategy int

// Relay-selection strategies.
const (
	// StrategyRandom picks uniformly — no learning (baseline).
	StrategyRandom Strategy = iota + 1
	// StrategyTrust picks the highest-scoring relay with ε-greedy
	// exploration.
	StrategyTrust
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyTrust:
		return "trust"
	default:
		return "unknown"
	}
}

// messageLayout is the end-to-end message: an id protected by a checksum
// so corruption is detectable at the destination.
func messageLayout() (*wire.Layout, error) {
	return wire.Compile(&wire.Message{
		Name: "TrustMsg",
		Fields: []wire.Field{
			{Name: "id", Kind: wire.FieldUint, Bits: 32},
			{Name: "chk", Kind: wire.FieldUint, Bits: 8,
				Compute: &wire.Compute{Kind: wire.ComputeChecksum, Algo: wire.ChecksumSum8}},
			{Name: "body", Kind: wire.FieldBytes, LenKind: wire.LenFixed, LenBytes: 16},
		},
	})
}

// Config parameterises a trust-routing run.
type Config struct {
	Relays int
	// AdversarialFraction of relays misbehave (half droppers, half
	// corruptors).
	AdversarialFraction float64
	// MisbehaveProb is the per-packet misbehaviour probability of an
	// adversarial relay.
	MisbehaveProb float64
	Strategy      Strategy
	// Epsilon is the exploration probability for StrategyTrust.
	Epsilon float64
	// Messages is the number of end-to-end messages to attempt.
	Messages int
	// Timeout is the per-message ack deadline.
	Timeout time.Duration
	Seed    int64
}

func (c *Config) defaults() {
	if c.Relays == 0 {
		c.Relays = 8
	}
	if c.MisbehaveProb == 0 {
		c.MisbehaveProb = 0.9
	}
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.Messages == 0 {
		c.Messages = 400
	}
	if c.Timeout == 0 {
		c.Timeout = 50 * time.Millisecond
	}
	if c.Strategy == 0 {
		c.Strategy = StrategyTrust
	}
}

// RelayStats reports one relay's observed record.
type RelayStats struct {
	Behaviour Behaviour
	Chosen    int
	Succeeded int
	Score     float64
}

// Result reports a completed run.
type Result struct {
	// SuccessRate is the share of messages delivered.
	SuccessRate float64
	// LateSuccessRate is the success rate over the final quarter of the
	// run — where learning has converged.
	LateSuccessRate float64
	Relays          []RelayStats
}

// Run executes a trust-routing experiment. Deterministic in Config.
func Run(cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.Relays < 1 {
		return nil, errors.New("trust: need at least one relay")
	}
	layout, err := messageLayout()
	if err != nil {
		return nil, err
	}

	sim := netsim.New(cfg.Seed)
	sender, err := sim.NewEndpoint("sender")
	if err != nil {
		return nil, err
	}
	dest, err := sim.NewEndpoint("dest")
	if err != nil {
		return nil, err
	}

	// Relay behaviours: the first ⌈f·n⌉ relays misbehave, alternating
	// dropper/corruptor; assignment is deterministic.
	nBad := int(cfg.AdversarialFraction*float64(cfg.Relays) + 0.5)
	relays := make([]*relay, cfg.Relays)
	for i := range relays {
		behaviour := Honest
		if i < nBad {
			if i%2 == 0 {
				behaviour = Dropper
			} else {
				behaviour = Corruptor
			}
		}
		ep, err := sim.NewEndpoint(fmt.Sprintf("relay%d", i))
		if err != nil {
			return nil, err
		}
		r := &relay{
			ep: ep, dest: dest.Addr(), behaviour: behaviour,
			prob: cfg.MisbehaveProb, rng: sim.Rand(),
		}
		ep.SetHandler(r.onPacket)
		relays[i] = r
		link := netsim.LinkParams{Delay: 2 * time.Millisecond}
		sim.Connect(sender, ep, link)
		sim.Connect(ep, dest, link)
	}
	// The ack path is direct (out-of-band observation channel).
	sim.Connect(dest, sender, netsim.LinkParams{Delay: 2 * time.Millisecond})

	d := &destination{ep: dest, back: sender.Addr(), layout: layout}
	dest.SetHandler(d.onPacket)

	runner := &runner{
		cfg: cfg, sim: sim, sender: sender, relays: relays, layout: layout,
		scores: newScores(cfg.Relays),
	}
	sender.SetHandler(runner.onAck)
	runner.next()
	if err := sim.RunUntilIdle(cfg.Messages*50 + 1000); err != nil {
		return nil, fmt.Errorf("trust: %w", err)
	}

	res := &Result{}
	if cfg.Messages > 0 {
		res.SuccessRate = float64(runner.delivered) / float64(cfg.Messages)
	}
	lastQ := cfg.Messages / 4
	if lastQ > 0 {
		res.LateSuccessRate = float64(runner.lateDelivered) / float64(lastQ)
	}
	for i, r := range relays {
		res.Relays = append(res.Relays, RelayStats{
			Behaviour: r.behaviour,
			Chosen:    runner.scores.trials[i],
			Succeeded: runner.scores.successes[i],
			Score:     runner.scores.score(i),
		})
	}
	return res, nil
}

// relay forwards traffic according to its behaviour.
type relay struct {
	ep        *netsim.Endpoint
	dest      netsim.Addr
	behaviour Behaviour
	prob      float64
	rng       *rand.Rand
}

func (r *relay) onPacket(_ netsim.Addr, data []byte) {
	switch r.behaviour {
	case Dropper:
		if r.rng.Float64() < r.prob {
			return
		}
	case Corruptor:
		if r.rng.Float64() < r.prob && len(data) > 0 {
			data = append([]byte(nil), data...)
			bit := r.rng.Intn(8 * len(data))
			data[bit/8] ^= 1 << uint(7-bit%8)
		}
	}
	_ = r.ep.Send(r.dest, data) // route always exists by construction
}

// destination validates and acknowledges messages end-to-end.
type destination struct {
	ep     *netsim.Endpoint
	back   netsim.Addr
	layout *wire.Layout
}

func (d *destination) onPacket(_ netsim.Addr, data []byte) {
	vals, err := d.layout.Decode(data)
	if err != nil {
		return // corrupted end-to-end: no ack, sender times out
	}
	ack := []byte{
		byte(vals["id"].AsUint() >> 24), byte(vals["id"].AsUint() >> 16),
		byte(vals["id"].AsUint() >> 8), byte(vals["id"].AsUint()),
	}
	_ = d.ep.Send(d.back, ack)
}

// scores is the beta-mean trust table: score = (succ+1)/(trials+2)
// (Laplace smoothing), so untried relays start at 0.5.
type scores struct {
	successes []int
	trials    []int
}

func newScores(n int) *scores {
	return &scores{successes: make([]int, n), trials: make([]int, n)}
}

func (s *scores) score(i int) float64 {
	return float64(s.successes[i]+1) / float64(s.trials[i]+2)
}

func (s *scores) best() int {
	bi := 0
	bs := s.score(0)
	for i := 1; i < len(s.trials); i++ {
		if sc := s.score(i); sc > bs {
			bi, bs = i, sc
		}
	}
	return bi
}

// runner drives sequential message attempts.
type runner struct {
	cfg    Config
	sim    *netsim.Sim
	sender *netsim.Endpoint
	relays []*relay
	layout *wire.Layout
	scores *scores

	msgID         int
	currentRelay  int
	timer         netsim.Timer
	acked         bool
	delivered     int
	lateDelivered int
}

func (r *runner) next() {
	if r.msgID >= r.cfg.Messages {
		return
	}
	r.currentRelay = r.pick()
	r.acked = false

	body := make([]byte, 16)
	for i := range body {
		body[i] = byte(r.msgID + i)
	}
	enc, err := r.layout.Encode(map[string]expr.Value{
		"id":   expr.U32(uint64(r.msgID)),
		"body": expr.Bytes(body),
	})
	if err != nil {
		return // cannot happen: layout is fixed and inputs well-formed
	}
	_ = r.sender.Send(r.relays[r.currentRelay].ep.Addr(), enc)
	r.timer = r.sim.After(r.cfg.Timeout, r.onTimeout)
}

func (r *runner) pick() int {
	switch r.cfg.Strategy {
	case StrategyRandom:
		return r.sim.Rand().Intn(len(r.relays))
	default:
		if r.sim.Rand().Float64() < r.cfg.Epsilon {
			return r.sim.Rand().Intn(len(r.relays))
		}
		return r.scores.best()
	}
}

func (r *runner) onAck(_ netsim.Addr, data []byte) {
	if r.acked || len(data) != 4 {
		return
	}
	id := int(data[0])<<24 | int(data[1])<<16 | int(data[2])<<8 | int(data[3])
	if id != r.msgID {
		return // stale ack from a timed-out attempt
	}
	r.acked = true
	if r.timer != nil {
		r.timer.Cancel()
	}
	r.scores.trials[r.currentRelay]++
	r.scores.successes[r.currentRelay]++
	r.delivered++
	if r.msgID >= r.cfg.Messages-r.cfg.Messages/4 {
		r.lateDelivered++
	}
	r.msgID++
	r.next()
}

func (r *runner) onTimeout() {
	if r.acked {
		return
	}
	r.scores.trials[r.currentRelay]++
	r.msgID++
	r.next()
}
