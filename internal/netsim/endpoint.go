package netsim

import (
	"fmt"
	"time"

	"protodsl/internal/faults"
	"protodsl/internal/obs"
)

// LinkParams configures one direction of a link. The zero value is a
// perfect, instantaneous link.
type LinkParams struct {
	// Delay is the fixed propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the probability a packet is silently dropped.
	LossProb float64
	// DupProb is the probability a packet is delivered twice.
	DupProb float64
	// CorruptProb is the probability a random bit of the payload flips.
	CorruptProb float64
	// ReorderProb is the probability a packet is held back by an extra
	// ReorderDelay, letting later packets overtake it.
	ReorderProb float64
	// ReorderDelay is the hold-back applied to reordered packets.
	ReorderDelay time.Duration
	// Bandwidth, if positive, limits the link to this many bytes per
	// second; packets queue behind one another (serialisation delay).
	Bandwidth int64
	// MTU, if positive, silently drops packets larger than this.
	MTU int
	// Faults, if non-nil, layers a compiled fault-injection schedule
	// (internal/faults: bursty loss, partitions, delay spikes) over the
	// link's own impairments. The injector owns its own PRNG and is
	// consulted after the link's loss roll, so a nil Faults run consumes
	// the simulation PRNG identically to a pre-faults build — golden
	// traces depend on that. Injectors are single-owner: never share one
	// across links (give each direction its own Instance).
	Faults *faults.Injector
}

type link struct {
	params    LinkParams
	busyUntil time.Duration
}

// Endpoint is a network attachment point. Handlers run inside the
// simulator event loop.
type Endpoint struct {
	sim     *Sim
	addr    Addr
	handler func(from Addr, data []byte)

	// route caches the last peer Send resolved: its link and endpoint,
	// valid while route.topo equals the Sim's topology generation.
	route route
}

// route is one resolved destination of an Endpoint.
type route struct {
	to   Addr
	link *link
	dst  *Endpoint
	topo uint64
}

// NewEndpoint registers a new endpoint.
func (s *Sim) NewEndpoint(name string) (*Endpoint, error) {
	addr := Addr(name)
	if _, exists := s.endpoints[addr]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateEndpoint, name)
	}
	e := &Endpoint{sim: s, addr: addr}
	s.endpoints[addr] = e
	s.topo++
	return e, nil
}

// Addr returns the endpoint's address.
func (e *Endpoint) Addr() Addr { return e.addr }

// SetHandler installs the receive callback. A nil handler discards
// incoming packets.
func (e *Endpoint) SetHandler(fn func(from Addr, data []byte)) { e.handler = fn }

// ObsShard exposes the owning sim's stats shard (obs.Source), so a Mux
// wrapping this endpoint counts its drops into the sim's block.
func (e *Endpoint) ObsShard() *obs.Shard { return e.sim.obsSh }

// Connect installs a bidirectional link with identical parameters in both
// directions.
func (s *Sim) Connect(a, b *Endpoint, p LinkParams) {
	s.ConnectDirectional(a, b, p)
	s.ConnectDirectional(b, a, p)
}

// ConnectDirectional installs (or replaces) the from→to link.
func (s *Sim) ConnectDirectional(from, to *Endpoint, p LinkParams) {
	s.links[linkKey{from.addr, to.addr}] = &link{params: p}
	s.topo++
}

// SetLinkParams updates the parameters of an existing directional link
// (used by experiments that vary conditions mid-run). It returns false if
// the link does not exist.
func (s *Sim) SetLinkParams(from, to Addr, p LinkParams) bool {
	l, ok := s.links[linkKey{from, to}]
	if !ok {
		return false
	}
	l.params = p
	return true
}

// Send transmits data from e to the destination address. The payload is
// copied. Delivery (or loss) is decided by the link's parameters using
// the simulation PRNG.
func (e *Endpoint) Send(to Addr, data []byte) error {
	s := e.sim
	if e.route.topo != s.topo || e.route.to != to {
		if err := e.resolve(to); err != nil {
			return err
		}
	}
	l, dst := e.route.link, e.route.dst
	s.stats.Sent++
	s.obsSh.Inc(obs.FramesOut)
	s.obsSh.Add(obs.BytesOut, uint64(len(data)))
	s.traceEvent(TraceSend, e.addr, to, len(data))

	p := l.params

	// Serialisation delay under a bandwidth cap: packets queue FIFO. The
	// link is charged *before* the loss/MTU decision — a packet that is
	// lost in flight (or discarded at the far end for exceeding the MTU)
	// still occupied the transmitter, so later packets queue behind it.
	// Charging only surviving packets under-reports queueing delay on a
	// lossy saturated link.
	txStart := s.now
	if p.Bandwidth > 0 {
		if l.busyUntil > txStart {
			txStart = l.busyUntil
		}
		txTime := time.Duration(float64(len(data)) / float64(p.Bandwidth) * float64(time.Second))
		l.busyUntil = txStart + txTime
		txStart = l.busyUntil
	}

	if p.MTU > 0 && len(data) > p.MTU {
		s.stats.Dropped++
		s.obsSh.Inc(obs.DropLink)
		s.traceEvent(TraceDrop, e.addr, to, len(data))
		return nil
	}
	if p.LossProb > 0 && s.rng.Float64() < p.LossProb {
		s.stats.Dropped++
		s.obsSh.Inc(obs.DropLink)
		s.traceEvent(TraceDrop, e.addr, to, len(data))
		return nil
	}

	// Injected faults layer over the link's own impairments: the verdict
	// comes from the injector's private PRNG keyed to virtual time, so a
	// faulted run replays bit-for-bit and a nil injector changes nothing.
	var faultDelay time.Duration
	if p.Faults != nil {
		v := p.Faults.Apply(s.now)
		if v.Drop {
			s.stats.FaultDropped++
			s.obsSh.Inc(obs.DropFault)
			s.traceEvent(TraceDrop, e.addr, to, len(data))
			return nil
		}
		faultDelay = v.Delay
	}

	// The packet survives the link: copy it now, so a dropped packet
	// costs no allocation. The copy draws nothing from the PRNG.
	payload := make([]byte, len(data))
	copy(payload, data)

	deliverAt := txStart + p.Delay + faultDelay
	if p.Jitter > 0 {
		deliverAt += time.Duration(s.rng.Int63n(int64(p.Jitter)))
	}
	if p.ReorderProb > 0 && s.rng.Float64() < p.ReorderProb {
		s.stats.Reordered++
		deliverAt += p.ReorderDelay
	}

	// Duplication is decided on the pristine payload; corruption is then
	// rolled independently for each delivered copy — the two copies of a
	// duplicated packet took separate trips through the medium, so they
	// must not share a flipped bit.
	var dupPayload []byte
	if p.DupProb > 0 && s.rng.Float64() < p.DupProb {
		dupPayload = make([]byte, len(payload))
		copy(dupPayload, payload)
	}
	s.scheduleDelivery(e.addr, dst, s.corrupt(p, e.addr, to, payload), deliverAt)
	if dupPayload != nil {
		dupAt := deliverAt + p.Delay/2 + 1
		s.stats.Duplicated++
		s.traceEvent(TraceDup, e.addr, to, len(dupPayload))
		s.scheduleDelivery(e.addr, dst, s.corrupt(p, e.addr, to, dupPayload), dupAt)
	}
	return nil
}

// resolve looks up the link to peer and the peer's endpoint and caches
// both in e.route, so a run of sends to one peer hashes no address.
func (e *Endpoint) resolve(to Addr) error {
	s := e.sim
	l, ok := s.links[linkKey{e.addr, to}]
	if !ok {
		return fmt.Errorf("%w: %s -> %s", ErrNoRoute, e.addr, to)
	}
	dst, ok := s.endpoints[to]
	if !ok {
		return fmt.Errorf("%w: %s -> %s (no such endpoint)", ErrNoRoute, e.addr, to)
	}
	e.route = route{to: to, link: l, dst: dst, topo: s.topo}
	return nil
}

// corrupt applies the link's corruption roll to one delivered copy,
// flipping a single random bit on success. The roll is independent per
// copy (see Send).
func (s *Sim) corrupt(p LinkParams, from, to Addr, payload []byte) []byte {
	if p.CorruptProb > 0 && s.rng.Float64() < p.CorruptProb && len(payload) > 0 {
		bit := s.rng.Intn(8 * len(payload))
		payload[bit/8] ^= 1 << uint(7-bit%8)
		s.stats.Corrupted++
		s.traceEvent(TraceCorrupt, from, to, len(payload))
	}
	return payload
}

// delivery is one packet in flight and its event's target. The
// records are pooled per Sim (Sim.freeDeliveries), so scheduling a
// delivery builds no closure and, once the pool is warm, allocates
// nothing beyond the payload copy Send already made.
type delivery struct {
	sim     *Sim
	from    Addr
	dst     *Endpoint
	payload []byte
	next    *delivery // free-list link
}

// scheduleDelivery queues payload for dst's handler at time at, in a
// delivery record taken from the Sim's free list.
func (s *Sim) scheduleDelivery(from Addr, dst *Endpoint, payload []byte, at time.Duration) {
	d := s.freeDeliveries
	if d != nil {
		s.freeDeliveries = d.next
		d.next = nil
	} else {
		d = &delivery{sim: s}
	}
	d.from, d.dst, d.payload = from, dst, payload
	s.schedule(at, d)
}

// Fire delivers the packet (target). The record goes back to
// the free list before the handler runs, so a handler that sends again
// reuses it.
func (d *delivery) Fire() {
	s, from, dst, payload := d.sim, d.from, d.dst, d.payload
	d.from, d.dst, d.payload = "", nil, nil
	d.next, s.freeDeliveries = s.freeDeliveries, d
	s.stats.Delivered++
	s.obsSh.Inc(obs.FramesIn)
	s.obsSh.Add(obs.BytesIn, uint64(len(payload)))
	s.traceEvent(TraceDeliver, from, dst.addr, len(payload))
	if dst.handler != nil {
		dst.handler(from, payload)
	}
}
