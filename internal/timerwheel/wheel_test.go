package timerwheel

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent / refHeap are a copy of the indexed binary heap the wheel
// replaced (netsim's PR 2 event queue), kept here as the reference
// implementation the differential tests compare against: the wheel must
// reproduce the heap's (deadline, arm-order) pop sequence exactly.
type refEvent struct {
	at    time.Duration
	seq   uint64
	id    int
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// differential drives a wheel and the reference heap through an
// identical op sequence and asserts identical pop order. Deadline
// generation is delegated so individual tests can stress specific
// regimes (same-instant storms, sub-granularity spreads, cascade
// boundaries, far horizons).
func differential(t *testing.T, seed int64, ops int, nextDeadline func(rng *rand.Rand, now time.Duration) time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := New(time.Microsecond)
	var h refHeap
	var seq uint64
	now := time.Duration(0)

	type live struct {
		we *Event
		he *refEvent
	}
	var pending []live
	fired := make(map[int]bool)
	nextID := 0

	arm := func() {
		at := nextDeadline(rng, now)
		if at < now {
			at = now
		}
		id := nextID
		nextID++
		we := w.Arm(at, Func(func() { fired[id] = true }))
		he := &refEvent{at: at, seq: seq, id: id}
		seq++
		heap.Push(&h, he)
		pending = append(pending, live{we, he})
	}

	cancel := func() {
		if len(pending) == 0 {
			return
		}
		i := rng.Intn(len(pending))
		l := pending[i]
		pending[i] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		if !w.Cancel(l.we) {
			t.Fatalf("Cancel of live event %d returned false", l.he.id)
		}
		heap.Remove(&h, l.he.index)
	}

	pop := func() {
		if h.Len() == 0 {
			if _, _, ok := w.Pop(); ok {
				t.Fatal("wheel non-empty while heap empty")
			}
			return
		}
		want := heap.Pop(&h).(*refEvent)
		wat, ok := w.PeekDeadline()
		if !ok {
			t.Fatalf("wheel empty while heap still has event %d at %s", want.id, want.at)
		}
		if wat != want.at {
			t.Fatalf("PeekDeadline = %s, heap min = %s (event %d)", wat, want.at, want.id)
		}
		at, target, ok := w.Pop()
		if !ok || at != want.at {
			t.Fatalf("wheel popped at=%s ok=%v, heap popped event %d at %s", at, ok, want.id, want.at)
		}
		target.Fire()
		if !fired[want.id] {
			t.Fatalf("wheel fired a different event than heap's %d at %s (FIFO tie-break broken)", want.id, want.at)
		}
		delete(fired, want.id)
		if want.at > now {
			now = want.at
		}
		// Drop the popped event from pending bookkeeping.
		for i := range pending {
			if pending[i].he == want {
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				break
			}
		}
	}

	for i := 0; i < ops; i++ {
		switch r := rng.Float64(); {
		case r < 0.45:
			arm()
		case r < 0.65:
			cancel()
		default:
			pop()
		}
		if w.size != h.Len() {
			t.Fatalf("op %d: wheel size=%d heap Len=%d", i, w.size, h.Len())
		}
	}
	for h.Len() > 0 {
		pop()
	}
	if w.size != 0 {
		t.Fatalf("wheel still holds %d events after heap drained", w.size)
	}
}

func TestDifferentialUniformDeadlines(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		differential(t, seed, 20000, func(rng *rand.Rand, now time.Duration) time.Duration {
			return now + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
		})
	}
}

// Same-instant storms: heavy FIFO tie-breaking, including zero-delay
// arms (the simulator's Post).
func TestDifferentialSameInstant(t *testing.T) {
	instants := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 20 * time.Millisecond}
	differential(t, 7, 20000, func(rng *rand.Rand, now time.Duration) time.Duration {
		return now + instants[rng.Intn(len(instants))]
	})
}

// Sub-granularity spreads: deadlines a few nanoseconds apart inside one
// 1µs tick must still fire in exact deadline order, not slot order.
func TestDifferentialSubGranularity(t *testing.T) {
	differential(t, 11, 20000, func(rng *rand.Rand, now time.Duration) time.Duration {
		return now + time.Duration(rng.Int63n(int64(4*time.Microsecond)))
	})
}

// Cascade boundaries: deadlines clustered around powers of the slot
// width (64^k ticks out) exercise multi-level placement, wrapped slots
// and the cursor's boundary-crossing cascades.
func TestDifferentialCascadeBoundaries(t *testing.T) {
	horizons := []time.Duration{
		63 * time.Microsecond,
		64 * time.Microsecond,
		65 * time.Microsecond,
		4095 * time.Microsecond,
		4096 * time.Microsecond,
		4097 * time.Microsecond,
		262143 * time.Microsecond,
		262145 * time.Microsecond,
	}
	differential(t, 13, 20000, func(rng *rand.Rand, now time.Duration) time.Duration {
		h := horizons[rng.Intn(len(horizons))]
		return now + h + time.Duration(rng.Int63n(128))
	})
}

// Far horizons: hours-to-days deadlines live in high levels and must
// cascade down correctly when mixed with millisecond churn.
func TestDifferentialFarHorizons(t *testing.T) {
	differential(t, 17, 8000, func(rng *rand.Rand, now time.Duration) time.Duration {
		switch rng.Intn(3) {
		case 0:
			return now + time.Duration(rng.Int63n(int64(time.Millisecond)))
		case 1:
			return now + time.Duration(rng.Int63n(int64(time.Hour)))
		default:
			return now + 24*time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
		}
	})
}

// SR-style churn: every arm is now+RTO, most are cancelled before
// firing — the workload the wheel exists for.
func TestDifferentialARQChurn(t *testing.T) {
	const rto = 20 * time.Millisecond
	differential(t, 19, 30000, func(rng *rand.Rand, now time.Duration) time.Duration {
		return now + rto + time.Duration(rng.Int63n(int64(time.Millisecond)))
	})
}

func TestFIFOAtEqualDeadlines(t *testing.T) {
	w := New(time.Microsecond)
	var order []int
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		w.Arm(time.Millisecond, Func(func() { order = append(order, i) }))
	}
	for {
		_, target, ok := w.Pop()
		if !ok {
			break
		}
		target.Fire()
	}
	if len(order) != n {
		t.Fatalf("fired %d events, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-deadline events fired out of arm order: %v...", order[:i+1])
		}
	}
}

func TestCancelUnlinksEverywhere(t *testing.T) {
	w := New(time.Microsecond)
	// One event per level regime: due (0 delta), level 0, level 1, level 3.
	deadlines := []time.Duration{0, 10 * time.Microsecond, time.Millisecond, time.Second}
	var evs []*Event
	for _, d := range deadlines {
		evs = append(evs, w.Arm(d, Func(func() { t.Error("cancelled event fired") })))
	}
	// Prime so the 0-delta event reaches the due buffer.
	if at, ok := w.PeekDeadline(); !ok || at != 0 {
		t.Fatalf("PeekDeadline = %v %v", at, ok)
	}
	for _, e := range evs {
		if !w.Cancel(e) {
			t.Fatal("Cancel of live event returned false")
		}
	}
	if w.size != 0 {
		t.Fatalf("size = %d after cancelling everything", w.size)
	}
	if _, _, ok := w.Pop(); ok {
		t.Fatal("Pop returned an event after all were cancelled")
	}
	// Double cancel is a refused no-op.
	if w.Cancel(evs[0]) {
		t.Fatal("double Cancel returned true")
	}
}

func TestPoolRecyclesChurn(t *testing.T) {
	w := New(time.Microsecond)
	fn := Func(func() {})
	// Warm the pool.
	w.Cancel(w.Arm(time.Millisecond, fn))
	if w.free == nil {
		t.Fatal("cancel did not return the event to the pool")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e := w.Arm(time.Millisecond, fn)
		w.Cancel(e)
	})
	if allocs != 0 {
		t.Errorf("arm/cancel cycle allocates %.1f objects, want 0 (event pooling broken)", allocs)
	}
}

func TestGranularityRounding(t *testing.T) {
	for _, tc := range []struct {
		in, want time.Duration
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {1000, 1024}, {1024, 1024}, {65536, 65536},
	} {
		if got := time.Duration(1) << New(tc.in).shift; got != tc.want {
			t.Errorf("New(%d) granularity = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Deadlines keep their exact value through placement and harvest.
func TestDeadlinesStayExact(t *testing.T) {
	w := New(time.Microsecond)
	at := 123456789 * time.Nanosecond
	var got time.Duration
	w.Arm(at, Func(func() {}))
	pat, target, ok := w.Pop()
	if !ok {
		t.Fatal("empty wheel")
	}
	got = pat
	target.Fire()
	if got != at {
		t.Errorf("popped deadline %s, want exact %s (granularity must not quantise deadlines)", got, at)
	}
}

// Arming from inside a pop (the handler-arms-a-timer shape) must
// interleave correctly with the events already due at the same instant.
func TestArmDuringDrainSameInstant(t *testing.T) {
	w := New(time.Microsecond)
	var order []string
	w.Arm(500*time.Nanosecond, Func(func() {
		order = append(order, "a")
		// 600ns is within the same 1µs tick and must fire before 900ns.
		w.Arm(600*time.Nanosecond, Func(func() { order = append(order, "b") }))
	}))
	w.Arm(900*time.Nanosecond, Func(func() { order = append(order, "c") }))
	for {
		_, target, ok := w.Pop()
		if !ok {
			break
		}
		target.Fire()
	}
	if want := "a b c"; len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("fire order %v, want %s", order, want)
	}
}
