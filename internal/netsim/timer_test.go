package netsim

import (
	"slices"
	"testing"
	"time"
)

// The core regression of the event-heap rework: a cancelled timer is
// *removed* — it cannot advance virtual time, is not processed, and does
// not count against the event budget.
func TestCancelledTimerDoesNotAdvanceTime(t *testing.T) {
	s := New(1)
	tm := s.After(100*time.Millisecond, func() { t.Error("cancelled timer fired") })
	tm.Cancel()
	if len(s.events.heap) != 0 {
		t.Error("queue not empty after cancelling the only timer")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 0 {
		t.Errorf("Now = %s, want 0: dead events must not move the clock", s.Now())
	}
	if s.Processed() != 0 {
		t.Errorf("processed %d events, want 0", s.Processed())
	}
}

// Ten live events plus one cancelled between them: the run must process
// exactly the live ones and finish at the last live instant.
func TestCancelInterleavedWithLiveEvents(t *testing.T) {
	s := New(1)
	fired := 0
	for i := 1; i <= 10; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { fired++ })
	}
	doomed := s.After(15*time.Millisecond, func() { t.Error("doomed timer fired") })
	doomed.Cancel()
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now = %s, want 10ms (not the cancelled 15ms)", s.Now())
	}
	if s.Processed() != 10 {
		t.Errorf("processed = %d, want 10", s.Processed())
	}
}

// Cancelling from the middle of the heap must preserve ordering of the
// remaining events (exercises heap.Remove + index maintenance).
func TestCancelMiddleOfHeapKeepsOrder(t *testing.T) {
	s := New(1)
	var order []int
	timers := make([]Timer, 20)
	for i := 0; i < 20; i++ {
		i := i
		timers[i] = s.After(time.Duration(i+1)*time.Millisecond, func() { order = append(order, i) })
	}
	for i := 0; i < 20; i += 3 {
		timers[i].Cancel()
	}
	if err := s.RunUntilIdle(100); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range order {
		if v%3 == 0 {
			t.Fatalf("cancelled timer %d fired", v)
		}
		if v < want {
			t.Fatalf("order broken: %v", order)
		}
		want = v
	}
	if len(order) != 13 {
		t.Errorf("fired %d timers, want 13", len(order))
	}
}

// Cancelling a timer from inside another handler at the same instant.
func TestCancelFromHandlerSameInstant(t *testing.T) {
	s := New(1)
	var victim Timer
	s.After(5*time.Millisecond, func() { victim.Cancel() })
	victim = s.After(5*time.Millisecond, func() { t.Error("victim fired despite same-instant cancel") })
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("Now = %s", s.Now())
	}
}

// Timer state transitions: Active until fired or cancelled; Cancel after
// fire is a no-op; double Cancel is a no-op.
func TestTimerStateMachine(t *testing.T) {
	s := New(1)
	tm := s.After(time.Millisecond, func() {})
	if !tm.Active() || tm.Fired() {
		t.Error("fresh timer not active")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if tm.Active() || !tm.Fired() {
		t.Error("fired timer still active")
	}
	tm.Cancel() // no-op after firing
	if !tm.Fired() {
		t.Error("Cancel after fire cleared Fired")
	}
	tm2 := s.After(time.Millisecond, func() {})
	tm2.Cancel()
	tm2.Cancel() // double cancel
	if tm2.Active() || tm2.Fired() {
		t.Error("cancelled timer active or fired")
	}

	// Reset re-arms a pending, a fired and a cancelled timer alike: each
	// is Active and not Fired until its new deadline, and then fires
	// once, with the new callback.
	var runs []string
	pending := s.After(time.Hour, func() { runs = append(runs, "stale") })
	for _, c := range []struct {
		name string
		tm   Timer
	}{{"pending", pending}, {"fired", tm}, {"cancelled", tm2}} {
		name := c.name
		c.tm.(resetter).Reset(time.Millisecond, func() { runs = append(runs, name) })
		if !c.tm.Active() || c.tm.Fired() {
			t.Errorf("reset %s timer: Active=%v Fired=%v, want true false", name, c.tm.Active(), c.tm.Fired())
		}
	}
	start := s.Now()
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if want := []string{"pending", "fired", "cancelled"}; !slices.Equal(runs, want) {
		t.Errorf("reset timers ran %v, want %v (reset order, once each)", runs, want)
	}
	if got := s.Now() - start; got != time.Millisecond {
		t.Errorf("reset timers fired %s after the reset, want 1ms", got)
	}
	for _, tm := range []Timer{pending, tm, tm2} {
		if tm.Active() || !tm.Fired() {
			t.Error("reset timer not fired after its deadline")
		}
	}
	pending.(resetter).Reset(time.Millisecond, func() { t.Error("cancelled reset timer fired") })
	pending.Cancel()
	if pending.Active() || pending.Fired() {
		t.Error("Cancel after Reset left the timer active or fired")
	}
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
}

// Rearm on the simulator's own timer re-arms it in place, and a Timer
// without Reset (any other Runtime's) is cancelled and replaced by
// After; both orders are the one Cancel plus After gives.
func TestRearmResetsOrFallsBack(t *testing.T) {
	s := New(1)
	var runs []string
	tm := s.After(time.Millisecond, func() { runs = append(runs, "first") })
	if got := Rearm(s, tm, 2*time.Millisecond, func() { runs = append(runs, "reset") }); got != tm {
		t.Error("Rearm replaced a simulator timer instead of resetting it")
	}
	foreign := foreignTimer{s.After(time.Millisecond, func() { runs = append(runs, "foreign") })}
	got := Rearm(s, foreign, time.Millisecond, func() { runs = append(runs, "replacement") })
	if got == Timer(foreign) || foreign.Active() {
		t.Error("Rearm kept a timer that has no Reset")
	}
	fresh := Rearm(s, nil, time.Millisecond, func() { runs = append(runs, "fresh") })
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if want := []string{"replacement", "fresh", "reset"}; !slices.Equal(runs, want) {
		t.Errorf("ran %v, want %v", runs, want)
	}
	if !fresh.Fired() || !got.Fired() {
		t.Error("Rearm's timers did not report Fired")
	}
}

// foreignTimer hides the simulator timer's Reset, as a Timer from
// another Runtime implementation would lack it.
type foreignTimer struct{ Timer }

// Re-arming a warm timer, pending or fired, allocates nothing: the
// handle and its event are reused.
func TestTimerResetAllocs(t *testing.T) {
	s := New(1)
	fn := func() {}
	tm := s.After(time.Millisecond, fn)
	if allocs := testing.AllocsPerRun(1000, func() { tm = Rearm(s, tm, time.Millisecond, fn) }); allocs != 0 {
		t.Errorf("Rearm of a pending timer allocates %.1f objects, want 0", allocs)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm = Rearm(s, tm, time.Millisecond, fn)
		if err := s.RunUntilIdle(10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Rearm plus firing allocates %.1f objects, want 0", allocs)
	}
}

// The arm/cancel/re-arm cycle of an ARQ sender must not allocate a new
// event struct per cycle (the queue's pool recycles them), nor a
// wrapper closure (the timer itself is the event's target).
func TestEventPoolRecyclesArmCancelCycle(t *testing.T) {
	s := New(1)
	// Warm up the pool.
	tm := s.After(time.Millisecond, func() {})
	tm.Cancel()
	allocs := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Millisecond, func() {})
		tm.Cancel()
	})
	// The one alloc per cycle is the Timer handle. A wrapper closure
	// around the callback makes it 2; without event pooling it is 3.
	if allocs > 1 {
		t.Errorf("arm/cancel cycle allocates %.1f objects, want <= 1 (the Timer handle)", allocs)
	}
}

// A delivery builds no closure and takes its record from the Sim's
// pool: on a warm Sim, one Send plus its delivery allocates only the
// payload copy, and a duplicated packet only its second copy on top.
func TestPooledDeliveryAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    LinkParams
		want float64
	}{
		{"plain", LinkParams{Delay: time.Millisecond}, 1},
		{"duplicated", LinkParams{Delay: time.Millisecond, DupProb: 1}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, a, b := twoNodes(t, 1, tc.p)
			got := 0
			b.SetHandler(func(Addr, []byte) { got++ })
			data := []byte("payload")
			cycle := func() {
				if err := a.Send(b.Addr(), data); err != nil {
					t.Fatal(err)
				}
				if err := s.RunUntilIdle(10); err != nil {
					t.Fatal(err)
				}
			}
			cycle() // warm the event and delivery pools
			allocs := testing.AllocsPerRun(1000, cycle)
			if allocs > tc.want {
				t.Errorf("Send+RunUntilIdle allocates %.1f objects, want <= %.0f (payload copies only)", allocs, tc.want)
			}
			// AllocsPerRun adds one warm-up call of its own.
			if want := 1002 * int(tc.want); got != want {
				t.Errorf("handler ran %d times, want %d", got, want)
			}
		})
	}
}

// A packet the link drops is never copied: a Send lost to LossProb or
// refused by an undersized MTU allocates nothing.
func TestDroppedSendAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    LinkParams
	}{
		{"loss", LinkParams{Delay: time.Millisecond, LossProb: 1}},
		{"mtu", LinkParams{Delay: time.Millisecond, MTU: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, a, b := twoNodes(t, 1, tc.p)
			b.SetHandler(func(Addr, []byte) { t.Error("dropped packet delivered") })
			data := []byte("payload")
			allocs := testing.AllocsPerRun(1000, func() {
				if err := a.Send(b.Addr(), data); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("dropped Send allocates %.1f objects, want 0", allocs)
			}
			if err := s.RunUntilIdle(10); err != nil {
				t.Fatal(err)
			}
			if got := s.Stats().Dropped; got != 1001 {
				t.Errorf("Dropped = %d, want 1001", got)
			}
		})
	}
}

// A handler that sends again reuses the record its own delivery came
// in: the record is back on the free list before the handler runs.
func TestDeliveryRecordReusedByHandler(t *testing.T) {
	s, a, b := twoNodes(t, 1, LinkParams{Delay: time.Millisecond})
	bounces := 0
	a.SetHandler(func(_ Addr, data []byte) { _ = a.Send(b.Addr(), data) })
	b.SetHandler(func(_ Addr, data []byte) {
		if bounces++; bounces < 100 {
			_ = b.Send(a.Addr(), data)
		}
	})
	if err := a.Send(b.Addr(), []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntilIdle(1000); err != nil {
		t.Fatal(err)
	}
	if bounces != 100 {
		t.Fatalf("bounces = %d, want 100", bounces)
	}
	n := 0
	for d := s.freeDeliveries; d != nil; d = d.next {
		n++
	}
	if n != 1 {
		t.Errorf("%d delivery records after a ping-pong of one packet, want 1", n)
	}
}

// pooledEvents counts the recycled event structs awaiting reuse.
func pooledEvents(q *eventQueue) int {
	n := 0
	for e := q.free; e != nil; e = e.next {
		n++
	}
	return n
}

// Post/deliver churn through the run loop must recycle events too.
func TestEventPoolRecyclesRunLoop(t *testing.T) {
	s := New(1)
	s.Post(func() {})
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if pooledEvents(&s.events) == 0 {
		t.Error("run loop did not return events to the pool")
	}
	before := pooledEvents(&s.events)
	s.Post(func() {})
	if pooledEvents(&s.events) != before-1 {
		t.Error("schedule did not reuse a pooled event")
	}
}

// BenchmarkTimerRearm is timerwheel's BenchmarkTimerChurn workload on
// the simulator's timers, at a multi-flow shard's size, with each
// retired timer re-armed in place by Rearm instead of cancelled and
// replaced by a fresh After: 1k live timers, virtual time advancing
// 100 ns per op, and each op firing what is due and re-arming the
// oldest timer. A timer comes round every 100 µs, half its RTO, so 15
// in 16 are re-armed while pending (the ack beat the RTO); the rest are
// left to expire and re-armed once fired. Steady state: 0 allocs/op.
func BenchmarkTimerRearm(b *testing.B) {
	const (
		nLive     = 1000
		rto       = 200 * time.Microsecond
		dt        = 100 * time.Nanosecond
		fireEvery = 16
	)
	b.Run("sim-1k", func(b *testing.B) {
		s := New(1)
		fired := 0
		fn := func() { fired++ }
		ring := make([]Timer, nLive)
		for i := range ring {
			ring[i] = s.After(rto, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Run(s.Now() + dt)
			slot := i % nLive
			if slot%fireEvery == 0 && ring[slot].Active() {
				continue // left to expire
			}
			// Deterministic sub-tick jitter spreads the deadlines.
			ring[slot] = Rearm(s, ring[slot], rto+time.Duration((i*7)&1023), fn)
		}
		b.ReportMetric(float64(fired)/float64(b.N), "fires/op")
	})
}
