package netsim

import (
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
	if s.wheel.Len() != 0 {
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
}

// The arm/cancel/re-arm cycle of an ARQ sender must not allocate a new
// event struct per cycle (the wheel's pool recycles them), nor a
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

// Post/deliver churn through the run loop must recycle events too.
func TestEventPoolRecyclesRunLoop(t *testing.T) {
	s := New(1)
	s.Post(func() {})
	if err := s.RunUntilIdle(10); err != nil {
		t.Fatal(err)
	}
	if s.wheel.PooledEvents() == 0 {
		t.Error("run loop did not return events to the pool")
	}
	before := s.wheel.PooledEvents()
	s.Post(func() {})
	if s.wheel.PooledEvents() != before-1 {
		t.Error("schedule did not reuse a pooled event")
	}
}
