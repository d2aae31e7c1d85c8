package netsim

import (
	"errors"
	"fmt"

	"protodsl/internal/obs"
)

// ErrFlowInUse is returned when a mux flow id is claimed twice.
var ErrFlowInUse = errors.New("mux flow id already in use")

// Port is anything a protocol engine can attach to: a physical Endpoint
// or a logical flow carved out of one by a Mux. All implementations
// follow the simulator's single-goroutine contract.
type Port interface {
	// Addr returns the address frames sent from this port carry.
	Addr() Addr
	// Send transmits data to the destination address.
	Send(to Addr, data []byte) error
	// SetHandler installs the receive callback (nil discards).
	SetHandler(fn func(from Addr, data []byte))
}

var _ Port = (*Endpoint)(nil)

// Mux multiplexes many logical flows over one underlying port: each
// frame is prefixed with a two-byte header — the flow id and its
// bitwise complement — demultiplexed on receipt. The complement guards
// the header the way the inner protocols' checksums guard their
// payloads: a link-corrupted flow id fails the check and the frame is
// dropped (counted by reason in the stats shard) instead of being
// silently delivered to the wrong flow. All flows share the underlying
// link — including its bandwidth cap — which is how many concurrent
// transfers contend for one bottleneck.
type Mux struct {
	under Port
	obs   *obs.Shard // the underlying port's stats shard (or the discard block)
	flows [256]*FlowPort
}

// NewMux wraps a port (taking over its handler) and returns the mux.
// When the port carries a stats block (simulator endpoints and rtnet
// shard ports both do), mux drops are also counted there by reason.
func NewMux(under Port) *Mux {
	m := &Mux{under: under, obs: obs.Of(under)}
	under.SetHandler(m.dispatch)
	return m
}

func (m *Mux) dispatch(from Addr, data []byte) {
	if len(data) < 2 || data[1] != ^data[0] {
		m.obs.Inc(obs.DropBadHeader) // unframed noise or corrupted header: not attributable
		return
	}
	fp := m.flows[data[0]]
	if fp == nil || fp.handler == nil {
		m.obs.Inc(obs.DropUnknownFlow)
		return
	}
	fp.handler(from, data[2:])
}

// Flow claims the given flow id and returns its port.
func (m *Mux) Flow(id byte) (*FlowPort, error) {
	if m.flows[id] != nil {
		return nil, fmt.Errorf("%w: %d", ErrFlowInUse, id)
	}
	fp := &FlowPort{mux: m, id: id}
	m.flows[id] = fp
	return fp, nil
}

// FlowPort is one logical flow of a Mux. It implements Port; frames it
// sends reach the FlowPort with the same id on the peer's mux.
type FlowPort struct {
	mux     *Mux
	id      byte
	handler func(from Addr, data []byte)
	buf     []byte // reusable framing buffer
}

var _ Port = (*FlowPort)(nil)

// Addr returns the underlying port's address.
func (f *FlowPort) Addr() Addr { return f.mux.under.Addr() }

// Send frames data with the flow id header and transmits it on the
// underlying port. The frame buffer is reused across sends
// (Endpoint.Send copies).
func (f *FlowPort) Send(to Addr, data []byte) error {
	f.buf = append(f.buf[:0], f.id, ^f.id)
	f.buf = append(f.buf, data...)
	return f.mux.under.Send(to, f.buf)
}

// SetHandler installs the flow's receive callback. The payload view it
// receives aliases the delivery buffer, as with Endpoint handlers.
func (f *FlowPort) SetHandler(fn func(from Addr, data []byte)) { f.handler = fn }
