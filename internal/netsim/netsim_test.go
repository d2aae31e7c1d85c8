package netsim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func twoNodes(t testing.TB, seed int64, p LinkParams) (*Sim, *Endpoint, *Endpoint) {
	t.Helper()
	s := New(seed)
	a, err := s.NewEndpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewEndpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	s.Connect(a, b, p)
	return s, a, b
}

func TestPerfectDelivery(t *testing.T) {
	s, a, b := twoNodes(t, 1, LinkParams{Delay: 10 * time.Millisecond})
	var got [][]byte
	b.SetHandler(func(from Addr, data []byte) {
		if from != "A" {
			t.Errorf("from = %s", from)
		}
		got = append(got, data)
	})
	for i := 0; i < 10; i++ {
		if err := a.Send(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	for i, d := range got {
		if d[0] != byte(i) {
			t.Errorf("packet %d out of order: %d", i, d[0])
		}
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now = %s, want 10ms", s.Now())
	}
	if st := s.Stats(); st.Sent != 10 || st.Delivered != 10 {
		t.Errorf("counters sent=%d delivered=%d", st.Sent, st.Delivered)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, time.Duration, uint64) {
		s, a, b := twoNodes(t, 42, LinkParams{
			Delay: time.Millisecond, Jitter: time.Millisecond,
			LossProb: 0.3, DupProb: 0.2, CorruptProb: 0.1,
			ReorderProb: 0.2, ReorderDelay: 5 * time.Millisecond,
		})
		b.SetHandler(func(Addr, []byte) {})
		for i := 0; i < 200; i++ {
			if err := a.Send(b.Addr(), make([]byte, 32)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.RunUntilIdle(10000); err != nil {
			t.Fatal(err)
		}
		return s.Stats(), s.Now(), s.Processed()
	}
	s1, t1, p1 := run()
	s2, t2, p2 := run()
	if s1 != s2 || t1 != t2 || p1 != p2 {
		t.Errorf("same seed, different runs: %v/%v %s/%s %d/%d", s1, s2, t1, t2, p1, p2)
	}
}

func TestLossStatistics(t *testing.T) {
	s, a, b := twoNodes(t, 7, LinkParams{LossProb: 0.25})
	b.SetHandler(func(Addr, []byte) {})
	const n = 10000
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntilIdle(2 * n); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	lossRate := float64(st.Dropped) / float64(st.Sent)
	if lossRate < 0.22 || lossRate > 0.28 {
		t.Errorf("loss rate %.3f far from 0.25", lossRate)
	}
	if st.Delivered != st.Sent-st.Dropped {
		t.Errorf("delivered %d != sent-dropped %d", st.Delivered, st.Sent-st.Dropped)
	}
}

func TestDuplication(t *testing.T) {
	s, a, b := twoNodes(t, 7, LinkParams{DupProb: 1.0, Delay: time.Millisecond})
	count := 0
	b.SetHandler(func(Addr, []byte) { count++ })
	if err := a.Send(b.Addr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("delivered %d copies, want 2", count)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	s, a, b := twoNodes(t, 3, LinkParams{CorruptProb: 1.0})
	orig := []byte{0x00, 0xFF, 0x55}
	var got []byte
	b.SetHandler(func(_ Addr, data []byte) { got = data })
	if err := a.Send(b.Addr(), orig); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	diffBits := 0
	for i := range orig {
		x := orig[i] ^ got[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", diffBits)
	}
}

func TestReorderingOvertakes(t *testing.T) {
	// First packet gets held back, second overtakes it.
	s := New(5)
	a, _ := s.NewEndpoint("A")
	b, _ := s.NewEndpoint("B")
	s.ConnectDirectional(a, b, LinkParams{
		Delay: time.Millisecond, ReorderProb: 1.0, ReorderDelay: 10 * time.Millisecond,
	})
	var order []byte
	b.SetHandler(func(_ Addr, data []byte) { order = append(order, data[0]) })
	if err := a.Send(b.Addr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Turn reordering off for the second packet.
	s.SetLinkParams(a.Addr(), b.Addr(), LinkParams{Delay: time.Millisecond})
	if err := a.Send(b.Addr(), []byte{2}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Errorf("delivery order %v, want [2 1]", order)
	}
}

func TestBandwidthSerialisation(t *testing.T) {
	// 1000 bytes/s: a 100-byte packet takes 100ms to serialise.
	s, a, b := twoNodes(t, 1, LinkParams{Bandwidth: 1000})
	var times []time.Duration
	b.SetHandler(func(Addr, []byte) { times = append(times, s.Now()) })
	for i := 0; i < 3; i++ {
		if err := a.Send(b.Addr(), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("packet %d delivered at %s, want %s", i, times[i], w)
		}
	}
}

func TestMTUDrop(t *testing.T) {
	s, a, b := twoNodes(t, 1, LinkParams{MTU: 10})
	delivered := 0
	b.SetHandler(func(Addr, []byte) { delivered++ })
	if err := a.Send(b.Addr(), make([]byte, 11)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Errorf("delivered %d, want 1 (oversize dropped)", delivered)
	}
}

func TestNoRoute(t *testing.T) {
	s := New(1)
	a, _ := s.NewEndpoint("A")
	if _, err := s.NewEndpoint("A"); !errors.Is(err, ErrDuplicateEndpoint) {
		t.Errorf("duplicate endpoint err = %v", err)
	}
	if err := a.Send("B", []byte{1}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Send err = %v, want ErrNoRoute", err)
	}
	// An endpoint that exists but has no link from a is no route either.
	if _, err := s.NewEndpoint("C"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("C", []byte{1}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("unlinked Send err = %v, want ErrNoRoute", err)
	}
}

// TestReconnectAppliesNewLinkParams: Send caches the route to its last
// peer, and a Connect mid-run replaces the link, so the next send must
// travel over the new link's parameters — and a route cached before a
// later link existed must not stop sends to a newly linked peer.
func TestReconnectAppliesNewLinkParams(t *testing.T) {
	s, a, b := twoNodes(t, 1, LinkParams{Delay: 10 * time.Millisecond})
	var at []time.Duration
	b.SetHandler(func(Addr, []byte) { at = append(at, s.Now()) })
	if err := a.Send(b.Addr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	s.Connect(a, b, LinkParams{Delay: 30 * time.Millisecond})
	if err := a.Send(b.Addr(), []byte{2}); err != nil {
		t.Fatal(err)
	}
	s.Connect(a, b, LinkParams{LossProb: 1})
	if err := a.Send(b.Addr(), []byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if want := []time.Duration{10 * time.Millisecond, 40 * time.Millisecond}; len(at) != 2 || at[0] != want[0] || at[1] != want[1] {
		t.Fatalf("deliveries at %v, want %v (the third send crossed a total-loss link)", at, want)
	}
	if st := s.Stats(); st.Sent != 3 || st.Dropped != 1 {
		t.Errorf("sent=%d dropped=%d, want 3 and 1", st.Sent, st.Dropped)
	}

	c, err := s.NewEndpoint("C")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	c.SetHandler(func(Addr, []byte) { got++ })
	s.ConnectDirectional(a, c, LinkParams{})
	if err := a.Send(c.Addr(), []byte{4}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(b.Addr(), []byte{5}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("C received %d packets, want 1", got)
	}
}

// TestUnknownPeerAfterCachedRoute: a route cached for one peer never
// answers for another — an unknown or unlinked peer is still
// ErrNoRoute, and the cached peer still works afterwards.
func TestUnknownPeerAfterCachedRoute(t *testing.T) {
	s, a, b := twoNodes(t, 1, LinkParams{})
	if err := a.Send(b.Addr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("Z", []byte{1}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Send to unknown peer err = %v, want ErrNoRoute", err)
	}
	if _, err := s.NewEndpoint("C"); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("C", []byte{1}); !errors.Is(err, ErrNoRoute) {
		t.Errorf("Send to unlinked peer err = %v, want ErrNoRoute", err)
	}
	if err := a.Send(b.Addr(), []byte{2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Sent != 2 {
		t.Errorf("sent=%d, want 2 (failed sends count nothing)", st.Sent)
	}
}

func TestTimers(t *testing.T) {
	s := New(1)
	fired := []int{}
	s.After(30*time.Millisecond, func() { fired = append(fired, 3) })
	s.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	t2 := s.After(20*time.Millisecond, func() { fired = append(fired, 2) })
	t2.Cancel()
	if t2.Active() {
		t.Error("cancelled timer still active")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Errorf("fired = %v, want [1 3]", fired)
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %s", s.Now())
	}
}

func TestTimerRescheduleFromHandler(t *testing.T) {
	s := New(1)
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(time.Millisecond, tick)
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("ticks = %d, want 5", count)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("Now = %s, want 5ms", s.Now())
	}
}

func TestRunUntilIdleBudget(t *testing.T) {
	s := New(1)
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	loop()
	if err := s.RunUntilIdle(50); !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestRunUntilTime(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(5*time.Millisecond, func() { fired++ })
	s.After(15*time.Millisecond, func() { fired++ })
	n := s.Run(10 * time.Millisecond)
	if n != 1 || fired != 1 {
		t.Errorf("Run processed %d fired %d, want 1 1", n, fired)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now = %s, want 10ms (advanced to horizon)", s.Now())
	}
	s.Run(20 * time.Millisecond)
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
}

func TestSameInstantOrdering(t *testing.T) {
	// Events scheduled for the same instant run in scheduling order.
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Post(func() { order = append(order, i) })
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant order broken: %v", order)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	s, a, b := twoNodes(t, 1, LinkParams{Delay: time.Millisecond})
	s.EnableTrace()
	b.SetHandler(func(Addr, []byte) {})
	if err := a.Send(b.Addr(), []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	tr := s.Trace()
	if len(tr) != 2 || tr[0].Kind != TraceSend || tr[1].Kind != TraceDeliver {
		t.Fatalf("trace = %v", tr)
	}
	if tr[1].At != time.Millisecond || tr[1].Size != 2 {
		t.Errorf("deliver event = %+v", tr[1])
	}
	if tr[0].String() == "" || tr[0].Kind.String() != "send" {
		t.Error("trace rendering broken")
	}
}

// Property: with loss only (no duplication), delivered + dropped == sent,
// and payloads arrive unmodified.
func TestQuickConservation(t *testing.T) {
	f := func(seed int64, lossPct uint8) bool {
		loss := float64(lossPct%101) / 100
		s := New(seed)
		a, _ := s.NewEndpoint("A")
		b, _ := s.NewEndpoint("B")
		s.Connect(a, b, LinkParams{LossProb: loss})
		intact := true
		b.SetHandler(func(_ Addr, data []byte) {
			if len(data) != 4 || data[0] != 0xAB {
				intact = false
			}
		})
		for i := 0; i < 50; i++ {
			if err := a.Send(b.Addr(), []byte{0xAB, 1, 2, 3}); err != nil {
				return false
			}
		}
		if err := s.RunUntilIdle(1000); err != nil {
			return false
		}
		st := s.Stats()
		return intact && st.Delivered+st.Dropped == st.Sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHandlerPayloadIsolation(t *testing.T) {
	// Mutating the sender's buffer after Send must not affect delivery.
	s, a, b := twoNodes(t, 1, LinkParams{Delay: time.Millisecond})
	buf := []byte{1, 2, 3}
	var got []byte
	b.SetHandler(func(_ Addr, data []byte) { got = data })
	if err := a.Send(b.Addr(), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("payload aliased the sender's buffer")
	}
}
