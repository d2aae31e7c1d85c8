// Package netsim is a deterministic discrete-event network simulator.
//
// It is the substrate the paper's protocols run on in this reproduction:
// the paper targets real (wireless, mobile) networks; we substitute a
// simulator that reproduces the behaviours those networks inject — loss,
// duplication, corruption, reordering, delay jitter and bandwidth limits —
// under a seeded PRNG so every experiment is reproducible bit-for-bit.
//
// The simulator is single-threaded: protocol handlers run inside the
// event loop, so no locking is needed and runs are deterministic. Virtual
// time advances only when live events fire — cancelled timers are removed
// from the timer store outright, so a dead event can never move the clock
// or burn event budget.
//
// The timer store is an indexed 4-ary min-heap keyed by (deadline, arm
// sequence), sized to what a simulation actually holds live: one or two
// events for a stop-and-wait transfer, a few hundred per multi-flow
// shard. Events fire in strict (deadline, arm-order) sequence, so every
// seeded run is byte-identical to the timing-wheel core it replaced
// (the golden-trace tests in internal/arq and internal/harness pin
// this). See DESIGN.md §9.
//
// The data path repeats no allocation it can avoid: an event's target
// is the simulator's own timer or delivery record, not a closure, so
// After allocates only the Timer handle, Rearm re-arms that handle in
// place and allocates nothing, and event and delivery records are
// pooled per Sim — on a warm Sim, a delivered Send allocates only the
// payload copy (two on a duplicated packet), and a dropped one
// allocates nothing.
//
// Concurrency contract: a Sim and everything attached to it (endpoints,
// muxes, timers) belong to exactly one goroutine. Scaling out means many
// Sims — one per goroutine, each fully independent — which is what
// internal/harness does: it shards seeded simulations across a worker
// pool and aggregates their metrics. Never share a Sim across goroutines.
//
// Topologies are not limited to two endpoints: any number of endpoints
// can be registered and linked pairwise, and topology.go provides star
// and chain builders plus a flow Mux that multiplexes many logical flows
// over one (possibly bandwidth-limited) bottleneck link.
//
// Protocol engines reach the simulator only through two small
// interfaces defined here — Port (datagrams) and Runtime (time and
// cancellable timers) — which internal/rtnet also implements over real
// UDP sockets. An engine written against them runs on either substrate
// unchanged; see DESIGN.md §7.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"protodsl/internal/obs"
)

// Simulation errors.
var (
	// ErrNoRoute is returned by Send when no link connects the endpoints.
	ErrNoRoute = errors.New("no route between endpoints")
	// ErrBudgetExceeded is returned by RunUntilIdle when the event budget
	// is exhausted before the queue drains (a likely livelock).
	ErrBudgetExceeded = errors.New("event budget exceeded")
	// ErrDuplicateEndpoint is returned when an endpoint name is reused.
	ErrDuplicateEndpoint = errors.New("duplicate endpoint name")
)

// Addr identifies an endpoint.
type Addr string

// simTraceSlots sizes the trace ring EnableTrace arms: comfortably
// above the longest golden-trace scenario (a few hundred events), so
// the deterministic tests see every event; longer live runs wrap with
// drop-oldest semantics.
const simTraceSlots = 4096

// Sim is a simulation instance. Create with New; not safe for concurrent
// use (by design — see the package comment).
type Sim struct {
	now       time.Duration
	events    eventQueue
	rng       *rand.Rand
	endpoints map[Addr]*Endpoint
	links     map[linkKey]*link
	topo      uint64 // topology generation: bumped by NewEndpoint and ConnectDirectional
	stats     Stats
	processed uint64

	// freeDeliveries is the pool of delivery records (endpoint.go):
	// a record is taken when a packet is scheduled and returned when it
	// arrives, so the event loop reuses them instead of allocating.
	freeDeliveries *delivery

	// Observability: one stats shard (the sim is single-threaded) whose
	// ring buffer replaces the old unbounded []TraceEvent trace. The
	// ring stores interned endpoint ids, not strings, so recording one
	// event is a few atomic stores; Trace() re-expands ids to names.
	obs    *obs.Stats
	obsSh  *obs.Shard
	addrID map[Addr]uint16
	addrs  []Addr
}

type linkKey struct{ from, to Addr }

// New creates a simulator seeded for deterministic runs.
func New(seed int64) *Sim {
	st := obs.New(1, 0) // ring armed lazily by EnableTrace: Sims are created en masse
	return &Sim{
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: make(map[Addr]*Endpoint),
		links:     make(map[linkKey]*link),
		obs:       st,
		obsSh:     st.Shard(0),
		addrID:    make(map[Addr]uint16),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// EnableTrace turns on event tracing (off by default), arming the
// bounded trace ring on first use. Unlike the pre-ring implementation
// the trace no longer grows without bound: once simTraceSlots events
// are recorded the oldest are overwritten.
func (s *Sim) EnableTrace() {
	s.obs.ArmTrace(simTraceSlots)
	s.obs.SetTrace(true)
}

// Trace returns a copy of the recorded trace, decoded from the ring
// (oldest surviving event first).
func (s *Sim) Trace() []TraceEvent {
	entries := s.obsSh.Ring().Snapshot(nil)
	out := make([]TraceEvent, 0, len(entries))
	for _, e := range entries {
		out = append(out, TraceEvent{
			At:   e.At,
			Kind: TraceKind(e.Kind),
			From: s.addrOf(e.From),
			To:   s.addrOf(e.To),
			Size: e.Size,
		})
	}
	return out
}

// Stats returns a snapshot of the simulator's packet counters.
func (s *Sim) Stats() Stats { return s.stats }

// Obs returns the simulator's observability block (one shard).
func (s *Sim) Obs() *obs.Stats { return s.obs }

// ObsShard exposes the sim's stats shard (obs.Source): engines handed
// this Sim as their Runtime count into it via obs.Of.
func (s *Sim) ObsShard() *obs.Shard { return s.obsSh }

// intern maps an endpoint address to a small id for the trace ring.
// Ids start at 1; 0 is the unknown sentinel. The ring packs ids into 12
// bits, so a pathological >4095-endpoint sim traces "?" rather than
// mislabelling.
func (s *Sim) intern(a Addr) uint16 {
	if id, ok := s.addrID[a]; ok {
		return id
	}
	if len(s.addrs) >= 1<<12-1 {
		return 0
	}
	s.addrs = append(s.addrs, a)
	id := uint16(len(s.addrs))
	s.addrID[a] = id
	return id
}

func (s *Sim) addrOf(id uint16) Addr {
	if id == 0 || int(id) > len(s.addrs) {
		return "?"
	}
	return s.addrs[id-1]
}

// schedule enqueues t at absolute virtual time at. Event structs are
// pooled inside the queue: the steady-state send/timeout loop reuses
// them instead of allocating.
func (s *Sim) schedule(at time.Duration, t target) *event {
	if at < s.now {
		at = s.now
	}
	return s.events.arm(at, t)
}

// simTimer is the simulator's Timer implementation. It is also its
// event's target, so arming one allocates only the timer itself, and
// re-arming it (Reset) allocates nothing.
type simTimer struct {
	sim   *Sim
	ev    *event
	fn    func() // the callback; dropped once it fires or is cancelled
	fired bool
}

// Fire runs the callback (target).
func (t *simTimer) Fire() {
	fn := t.fn
	t.fired, t.ev, t.fn = true, nil, nil
	fn()
}

// Cancel prevents the timer from firing and removes its event from the
// queue: a cancelled timer costs nothing to the event loop and — crucially
// — can never advance virtual time. Cancelling an already-fired or
// already-cancelled timer is a no-op.
func (t *simTimer) Cancel() {
	if t.ev == nil {
		return
	}
	t.sim.events.cancel(t.ev)
	t.ev, t.fn = nil, nil
}

// Reset re-arms the timer to run fn after virtual duration d, whether
// it is pending, fired or cancelled; it is then Active and not Fired,
// as a fresh After's timer would be. A pending timer's event is re-keyed
// where it sits in the queue, under a fresh arm sequence, so the firing
// order is the one Cancel plus After would give.
func (t *simTimer) Reset(d time.Duration, fn func()) {
	s := t.sim
	t.fn, t.fired = fn, false
	if t.ev == nil {
		t.ev = s.schedule(s.now+d, t)
		return
	}
	s.events.rearm(t.ev, max(s.now+d, s.now))
}

// Fired reports whether the callback has run.
func (t *simTimer) Fired() bool { return t.fired }

// Active reports whether the timer is still pending.
func (t *simTimer) Active() bool { return t.ev != nil }

// After schedules fn to run after virtual duration d and returns a
// cancellable timer.
func (s *Sim) After(d time.Duration, fn func()) Timer {
	t := &simTimer{sim: s, fn: fn}
	t.ev = s.schedule(s.now+d, t)
	return t
}

// Post schedules fn to run "immediately" (at the current time, after any
// events already queued for this instant).
func (s *Sim) Post(fn func()) { s.schedule(s.now, funcTarget(fn)) }

// Run processes events until the queue is empty or virtual time would
// exceed `until`. It returns the number of events processed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	for len(s.events.heap) > 0 && s.events.heap[0].at <= until {
		at, t := s.events.pop()
		s.now = at
		t.Fire()
		s.processed++
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunUntilIdle processes events until the queue drains, failing if more
// than maxEvents fire (which indicates a livelock such as an
// ever-rescheduling timer).
func (s *Sim) RunUntilIdle(maxEvents int) error {
	for n := 0; len(s.events.heap) > 0; n++ {
		if n >= maxEvents {
			return fmt.Errorf("%w: %d events", ErrBudgetExceeded, maxEvents)
		}
		at, t := s.events.pop()
		s.now = at
		t.Fire()
		s.processed++
	}
	return nil
}

// Rand exposes the simulation PRNG so protocol components (e.g. random
// relay choice) share the deterministic seed.
func (s *Sim) Rand() *rand.Rand { return s.rng }
