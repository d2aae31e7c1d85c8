// Package faults is the deterministic fault-injection substrate: it
// turns a declarative, JSON-serialisable Schedule of network
// misbehaviour — Gilbert-Elliott bursty loss, time-windowed partitions
// and blackholes, delay spikes and jitter ramps, peer crash/restart
// marks — into per-packet verdicts, driven by its own seeded PRNG so
// every chaos run replays bit-for-bit.
//
// The paper's robustness claim (and Burgy et al.'s language-based
// robustness argument, PAPERS.md) is that protocol implementations must
// be *demonstrated* against the network's full misbehaviour spectrum,
// not just uniform i.i.d. loss. The simulator's LinkParams model the
// latter; this package supplies the former, pluggable into both
// substrates the engines run on:
//
//   - netsim: a compiled *Injector in LinkParams.Faults is consulted on
//     every Send, layered over the link's own impairments.
//   - rtnet: rtnet.Config.Faults interposes an injector per shard on the
//     loopback send path (see DESIGN.md §13).
//
// Determinism and replay: an Injector owns a rand.Rand seeded from the
// Schedule, separate from any simulator PRNG, and consumes draws in a
// fixed per-packet order. Identical schedule + identical packet sequence
// ⇒ identical verdicts — the seeded-replay tests pin netsim golden-trace
// hashes on this. A nil Injector (or nil Schedule) injects nothing and
// consumes no randomness, so faults-off runs are byte-identical to runs
// predating this package.
//
// Concurrency contract: an Injector is stateful (the Gilbert-Elliott
// chain, the PRNG) and belongs to exactly one goroutine — one Sim, or
// one rtnet shard loop. Share Schedules, not Injectors; they are
// immutable after construction and each Instance call derives a fresh
// injector.
package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"
)

// ErrSchedule is returned for invalid schedules.
var ErrSchedule = errors.New("faults: invalid schedule")

// GilbertElliott parameterises the classic two-state bursty-loss chain:
// the channel is either Good or Bad, flips state per packet with the
// given probabilities, and drops the packet with the loss probability of
// the state it lands in. Mean burst length is 1/PBadGood packets; the
// stationary loss rate is PGoodBad/(PGoodBad+PBadGood) · LossBad (for
// LossGood = 0). This is the misbehaviour uniform i.i.d. loss cannot
// model: the same average loss concentrated into bursts that defeat a
// window's worth of packets at once.
type GilbertElliott struct {
	// PGoodBad is the per-packet probability of entering the bad state.
	PGoodBad float64 `json:"p_good_bad"`
	// PBadGood is the per-packet probability of leaving it.
	PBadGood float64 `json:"p_bad_good"`
	// LossGood is the drop probability while the channel is good
	// (usually 0 or small).
	LossGood float64 `json:"loss_good"`
	// LossBad is the drop probability while the channel is bad (usually
	// near 1: a burst eats nearly everything).
	LossBad float64 `json:"loss_bad"`
}

func (g *GilbertElliott) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"p_good_bad", g.PGoodBad}, {"p_bad_good", g.PBadGood},
		{"loss_good", g.LossGood}, {"loss_bad", g.LossBad},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("%w: gilbert %s=%v outside [0,1]", ErrSchedule, p.name, p.v)
		}
	}
	return nil
}

// Kind classifies one scheduled fault event.
type Kind string

// The event kinds. Partition and Blackhole both drop every packet in
// their window; they are distinct kinds because a partition is expected
// to heal (the engines should recover at Until) while a blackhole
// models a silently dead path segment. DelaySpike adds a fixed extra
// delay across its window; JitterRamp adds a uniformly random delay
// that ramps linearly from zero at From to Extra at Until. PeerCrash
// marks a window during which the peer process is down with all engine
// state lost — per-packet injection ignores it (a crashed peer is not a
// link property); chaos harnesses read it via Schedule.Crashes and kill
// and restart the peer node.
const (
	Partition  Kind = "partition"
	Blackhole  Kind = "blackhole"
	DelaySpike Kind = "delay_spike"
	JitterRamp Kind = "jitter_ramp"
	PeerCrash  Kind = "peer_crash"
)

// Event is one scheduled fault: active while From <= now < Until.
type Event struct {
	Kind Kind `json:"kind"`
	// From and Until bound the event window on the substrate's clock
	// (virtual time for netsim, time since node start for rtnet).
	From  time.Duration `json:"from"`
	Until time.Duration `json:"until"`
	// Extra is the delay magnitude for delay_spike and jitter_ramp;
	// ignored for the drop kinds.
	Extra time.Duration `json:"extra,omitempty"`
}

func (e *Event) validate(i int) error {
	switch e.Kind {
	case Partition, Blackhole, DelaySpike, JitterRamp, PeerCrash:
	default:
		return fmt.Errorf("%w: event %d: unknown kind %q", ErrSchedule, i, e.Kind)
	}
	if e.Until <= e.From {
		return fmt.Errorf("%w: event %d (%s): until %s <= from %s", ErrSchedule, i, e.Kind, e.Until, e.From)
	}
	if (e.Kind == DelaySpike || e.Kind == JitterRamp) && e.Extra <= 0 {
		return fmt.Errorf("%w: event %d (%s): extra delay must be positive", ErrSchedule, i, e.Kind)
	}
	return nil
}

// active reports whether the event covers instant now.
func (e *Event) active(now time.Duration) bool {
	return now >= e.From && now < e.Until
}

// Schedule is a declarative chaos plan: an optional bursty-loss chain
// plus any number of time-windowed events. It is immutable once built,
// JSON-round-trippable (cmd/protosim -faults reads one from a file),
// and shared freely — per-run state lives in the Injectors it derives.
type Schedule struct {
	// Seed seeds every derived injector's PRNG (offset by the instance
	// id, so per-shard injectors draw independent streams).
	Seed int64 `json:"seed"`
	// Gilbert, if non-nil, runs the bursty-loss chain on every packet.
	Gilbert *GilbertElliott `json:"gilbert,omitempty"`
	// Events are the scheduled windows, in any order.
	Events []Event `json:"events,omitempty"`
}

// Validate checks probability ranges and event windows.
func (s *Schedule) Validate() error {
	if s.Gilbert != nil {
		if err := s.Gilbert.validate(); err != nil {
			return err
		}
	}
	for i := range s.Events {
		if err := s.Events[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

// Crashes returns the peer_crash events in schedule order: the chaos
// harness's kill list. Per-packet injection never consumes them.
func (s *Schedule) Crashes() []Event {
	var out []Event
	for _, e := range s.Events {
		if e.Kind == PeerCrash {
			out = append(out, e)
		}
	}
	return out
}

// Load reads and validates a JSON schedule from path. Unknown fields
// are rejected — a typo'd chaos plan should fail loudly, not silently
// inject nothing.
func Load(path string) (*Schedule, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sch, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sch, nil
}

// Parse decodes and validates a JSON schedule.
func Parse(raw []byte) (*Schedule, error) {
	var sch Schedule
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sch); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSchedule, err)
	}
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	return &sch, nil
}

// Instance compiles the schedule into a fresh injector. id offsets the
// PRNG seed so sibling injectors (one per harness shard, one per rtnet
// shard) draw independent, individually reproducible streams.
func (s *Schedule) Instance(id int64) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Injector{
		sch: s,
		rng: rand.New(rand.NewSource(s.Seed + id)),
	}, nil
}

// MustInstance is Instance for schedules already validated (tests,
// experiment tables); it panics on error.
func (s *Schedule) MustInstance(id int64) *Injector {
	inj, err := s.Instance(id)
	if err != nil {
		panic(err)
	}
	return inj
}

// Verdict is the injector's decision for one packet.
type Verdict struct {
	// Drop discards the packet (burst loss, partition, blackhole).
	Drop bool
	// Delay is extra one-way latency to add on top of the link's own
	// (delay spikes, jitter ramps). Zero when Drop is set.
	Delay time.Duration
}

// Injector applies one schedule to one packet stream. Stateful and
// single-goroutine; see the package comment.
type Injector struct {
	sch *Schedule
	rng *rand.Rand
	bad bool // Gilbert-Elliott chain state
}

// Apply decides one packet at instant now. Draw order is fixed —
// window check (no draws), Gilbert-Elliott transition then loss roll
// (one draw each when the chain is configured), then delay windows
// (one draw per active jitter ramp) — so replays consume the PRNG
// identically packet for packet.
func (inj *Injector) Apply(now time.Duration) Verdict {
	// Scheduled drop windows first: a partitioned link drops regardless
	// of channel state, and consumes no randomness doing it.
	for i := range inj.sch.Events {
		e := &inj.sch.Events[i]
		if (e.Kind == Partition || e.Kind == Blackhole) && e.active(now) {
			return Verdict{Drop: true}
		}
	}
	// Gilbert-Elliott chain: advance state, then roll the state's loss.
	if g := inj.sch.Gilbert; g != nil {
		if inj.bad {
			if inj.rng.Float64() < g.PBadGood {
				inj.bad = false
			}
		} else {
			if inj.rng.Float64() < g.PGoodBad {
				inj.bad = true
			}
		}
		loss := g.LossGood
		if inj.bad {
			loss = g.LossBad
		}
		if inj.rng.Float64() < loss {
			return Verdict{Drop: true}
		}
	}
	// Delay windows stack: a spike during a ramp adds both.
	var extra time.Duration
	for i := range inj.sch.Events {
		e := &inj.sch.Events[i]
		if !e.active(now) {
			continue
		}
		switch e.Kind {
		case DelaySpike:
			extra += e.Extra
		case JitterRamp:
			// Linear ramp: the jitter ceiling grows from 0 at From to
			// Extra at Until, each packet drawing uniformly under it.
			ceil := int64(e.Extra) * int64(now-e.From) / int64(e.Until-e.From)
			if ceil > 0 {
				extra += time.Duration(inj.rng.Int63n(ceil + 1))
			}
		}
	}
	return Verdict{Delay: extra}
}
