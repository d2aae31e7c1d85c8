package netsim

import (
	"errors"
	"testing"
	"time"

	"protodsl/internal/obs"
)

func TestMuxSeparatesFlows(t *testing.T) {
	s := New(1)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	s.Connect(a, b, LinkParams{Delay: time.Millisecond})
	ma, mb := NewMux(a), NewMux(b)

	af0, err := ma.Flow(0)
	if err != nil {
		t.Fatal(err)
	}
	af1, _ := ma.Flow(1)
	bf0, _ := mb.Flow(0)
	bf1, _ := mb.Flow(1)
	if _, err := ma.Flow(1); !errors.Is(err, ErrFlowInUse) {
		t.Errorf("double-claim err = %v", err)
	}

	var got0, got1 []byte
	bf0.SetHandler(func(_ Addr, data []byte) { got0 = append(got0, data...) })
	bf1.SetHandler(func(_ Addr, data []byte) { got1 = append(got1, data...) })
	if err := af0.Send(b.Addr(), []byte{10}); err != nil {
		t.Fatal(err)
	}
	if err := af1.Send(b.Addr(), []byte{11}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(got0) != 1 || got0[0] != 10 {
		t.Errorf("flow 0 received %v", got0)
	}
	if len(got1) != 1 || got1[0] != 11 {
		t.Errorf("flow 1 received %v", got1)
	}

	// Reverse direction works through the same muxes.
	var echoed []byte
	af0.SetHandler(func(_ Addr, data []byte) { echoed = append(echoed, data...) })
	if err := bf0.Send(a.Addr(), []byte{99}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if len(echoed) != 1 || echoed[0] != 99 {
		t.Errorf("reverse flow received %v", echoed)
	}
	_ = bf1
	if af0.id != 0 || af1.id != 1 {
		t.Error("flow ids wrong")
	}
}

// Two muxed flows share one bandwidth-limited link: their packets queue
// behind each other, unlike two separate links.
func TestMuxFlowsShareBottleneckBandwidth(t *testing.T) {
	s := New(1)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	// 1000 B/s; each framed packet is 98+2 = 100 bytes -> 100ms each.
	s.Connect(a, b, LinkParams{Bandwidth: 1000})
	ma, mb := NewMux(a), NewMux(b)
	f0, _ := ma.Flow(0)
	f1, _ := ma.Flow(1)
	r0, _ := mb.Flow(0)
	r1, _ := mb.Flow(1)
	var t0, t1 time.Duration
	r0.SetHandler(func(Addr, []byte) { t0 = s.Now() })
	r1.SetHandler(func(Addr, []byte) { t1 = s.Now() })
	if err := f0.Send(b.Addr(), make([]byte, 98)); err != nil {
		t.Fatal(err)
	}
	if err := f1.Send(b.Addr(), make([]byte, 98)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if t0 != 100*time.Millisecond || t1 != 200*time.Millisecond {
		t.Errorf("deliveries at %s/%s, want 100ms/200ms (shared serialisation)", t0, t1)
	}
}

// A corrupted flow-id header must drop the frame, never deliver it to
// the wrong flow: the id/complement pair catches any single-bit flip in
// the header.
func TestMuxCorruptedHeaderDropsNotMisroutes(t *testing.T) {
	s := New(1)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	s.Connect(a, b, LinkParams{})
	mb := NewMux(b)
	var deliveries int
	for id := 0; id < 256; id++ {
		fp, err := mb.Flow(byte(id))
		if err != nil {
			t.Fatal(err)
		}
		fp.SetHandler(func(Addr, []byte) { deliveries++ })
	}
	// Hand-build frames for flow 7 and flip each header bit in turn —
	// every flip must be dropped, not handed to another flow's handler.
	for bit := 0; bit < 16; bit++ {
		frame := []byte{7, ^byte(7), 1, 2, 3}
		frame[bit/8] ^= 1 << (bit % 8)
		if err := a.Send(b.Addr(), frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if deliveries != 0 {
		t.Errorf("%d corrupted-header frames delivered, want 0", deliveries)
	}
	if got := obs.Of(b).Get(obs.DropBadHeader); got != 16 {
		t.Errorf("drop_bad_header = %d, want 16", got)
	}
	// An intact frame still goes through.
	if err := a.Send(b.Addr(), []byte{7, ^byte(7), 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if deliveries != 1 {
		t.Errorf("intact frame deliveries = %d, want 1", deliveries)
	}
}

// Lost packets still occupy the transmitter: with 100% loss followed by
// a clean packet, the survivor is delayed by the lost packet's
// serialisation time.
func TestLostPacketStillChargesBandwidth(t *testing.T) {
	s := New(1)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	s.ConnectDirectional(a, b, LinkParams{Bandwidth: 1000, LossProb: 1})
	s.ConnectDirectional(b, a, LinkParams{})
	var at time.Duration
	b.SetHandler(func(Addr, []byte) { at = s.Now() })
	if err := a.Send(b.Addr(), make([]byte, 100)); err != nil { // lost, but serialises 100ms
		t.Fatal(err)
	}
	s.SetLinkParams(a.Addr(), b.Addr(), LinkParams{Bandwidth: 1000})
	if err := a.Send(b.Addr(), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if at != 200*time.Millisecond {
		t.Errorf("survivor delivered at %s, want 200ms (lost packet must charge the link)", at)
	}
}

// Over-MTU packets are likewise charged before being discarded.
func TestOversizePacketStillChargesBandwidth(t *testing.T) {
	s := New(1)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	s.ConnectDirectional(a, b, LinkParams{Bandwidth: 1000, MTU: 150})
	s.ConnectDirectional(b, a, LinkParams{})
	var at time.Duration
	b.SetHandler(func(Addr, []byte) { at = s.Now() })
	if err := a.Send(b.Addr(), make([]byte, 200)); err != nil { // dropped, serialises 200ms
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if at != 300*time.Millisecond {
		t.Errorf("survivor delivered at %s, want 300ms (oversize packet must charge the link)", at)
	}
}

// Each copy of a duplicated packet rolls corruption independently: with
// CorruptProb 1 both copies are corrupted, but (almost always) at
// different bits — they must not share the same flip.
func TestDupCopiesCorruptIndependently(t *testing.T) {
	s := New(9)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	s.Connect(a, b, LinkParams{Delay: time.Millisecond, DupProb: 1, CorruptProb: 1})
	var copies [][]byte
	b.SetHandler(func(_ Addr, data []byte) { copies = append(copies, append([]byte(nil), data...)) })
	// Send enough pairs that identical independent flips (p = 1/256 per
	// pair for a 32-byte payload) are astronomically unlikely to happen
	// every time.
	const pairs = 20
	for i := 0; i < pairs; i++ {
		if err := a.Send(b.Addr(), make([]byte, 32)); err != nil {
			t.Fatal(err)
		}
		// Drain between sends so copies[2i] / copies[2i+1] are one pair.
		if err := s.RunUntilIdle(1000); err != nil {
			t.Fatal(err)
		}
	}
	if len(copies) != 2*pairs {
		t.Fatalf("delivered %d copies, want %d", len(copies), 2*pairs)
	}
	if s.Stats().Corrupted != 2*pairs {
		t.Errorf("corrupted = %d, want %d (one roll per copy)", s.Stats().Corrupted, 2*pairs)
	}
	identical := 0
	for i := 0; i < len(copies); i += 2 {
		if string(copies[i]) == string(copies[i+1]) {
			identical++
		}
	}
	if identical == pairs {
		t.Error("every dup pair shares the same flipped bit: corruption not independent per copy")
	}
}
