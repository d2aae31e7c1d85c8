package netsim

import (
	"math/rand"
	"testing"
	"time"

	"protodsl/internal/timerwheel"
)

// probe is a pop-order witness: the same probe is armed in both stores
// under comparison, so equal pop sequences hand back identical probes.
type probe struct{ id int }

func (*probe) Fire() {}

// queueVsWheel drives the simulator's eventQueue and the timing wheel it
// replaced (timerwheel.Wheel at the simulator's old 1µs tick) through
// one arm/cancel/pop sequence and fails on the first pop whose deadline
// or target differ.
type queueVsWheel struct {
	t      *testing.T
	rng    *rand.Rand
	q      eventQueue
	w      *timerwheel.Wheel
	handle map[*event]*timerwheel.Event
	now    time.Duration
	nextID int
	pops   int
}

func newQueueVsWheel(t *testing.T, seed int64) *queueVsWheel {
	return &queueVsWheel{
		t:      t,
		rng:    rand.New(rand.NewSource(seed)),
		w:      timerwheel.New(time.Microsecond),
		handle: make(map[*event]*timerwheel.Event),
	}
}

func (d *queueVsWheel) arm(at time.Duration) {
	if at < d.now {
		at = d.now
	}
	p := &probe{id: d.nextID}
	d.nextID++
	d.handle[d.q.arm(at, p)] = d.w.Arm(at, p)
}

// cancel removes the entry at heap index i from both stores.
func (d *queueVsWheel) cancel(i int) {
	e := d.q.heap[i].ev
	id := e.target.(*probe).id
	if !d.q.cancel(e) {
		d.t.Fatalf("queue refused to cancel live event %d", id)
	}
	if !d.w.Cancel(d.handle[e]) {
		d.t.Fatalf("wheel refused to cancel live event %d", id)
	}
	delete(d.handle, e)
	if d.q.cancel(e) {
		d.t.Fatalf("second cancel of event %d succeeded", id)
	}
}

// pop pops both stores once; it returns false when both are empty.
func (d *queueVsWheel) pop() bool {
	wat, wok := d.w.PeekDeadline()
	if len(d.q.heap) == 0 || !wok {
		if len(d.q.heap) != 0 || wok {
			d.t.Fatalf("pop %d: queue holds %d events, wheel non-empty = %v", d.pops, len(d.q.heap), wok)
		}
		return false
	}
	e := d.q.heap[0].ev
	at, qt := d.q.pop()
	_, wt, _ := d.w.Pop()
	if at != wat || qt != wt {
		d.t.Fatalf("pop %d: queue fired event %d at %s, wheel event %d at %s",
			d.pops, qt.(*probe).id, at, wt.(*probe).id, wat)
	}
	if e.index != -1 {
		d.t.Fatalf("pop %d: popped event still claims heap index %d", d.pops, e.index)
	}
	delete(d.handle, e)
	d.now = at
	d.pops++
	return true
}

// run performs ops random operations — arm 45 %, cancel 20 % (the head,
// the last heap entry or one in between, chosen evenly), pop 35 % — and
// then drains both stores. post, when non-nil, runs after every pop, as
// a handler would.
func (d *queueVsWheel) run(ops int, next func(rng *rand.Rand, now time.Duration) time.Duration, post func()) {
	for i := 0; i < ops; i++ {
		switch r := d.rng.Float64(); {
		case r < 0.45:
			d.arm(next(d.rng, d.now))
		case r < 0.65:
			if n := len(d.q.heap); n > 0 {
				switch d.rng.Intn(3) {
				case 0:
					d.cancel(0)
				case 1:
					d.cancel(n - 1)
				default:
					d.cancel(d.rng.Intn(n))
				}
			}
		default:
			if d.pop() && post != nil {
				post()
			}
		}
		checkHeap(d.t, &d.q)
	}
	for d.pop() {
	}
	if len(d.handle) != 0 {
		d.t.Fatalf("%d handles left after both stores drained", len(d.handle))
	}
}

// checkHeap verifies the heap order and every event's recorded index.
func checkHeap(t *testing.T, q *eventQueue) {
	t.Helper()
	h := q.heap
	for i := range h {
		if h[i].ev.index != i {
			t.Fatalf("heap slot %d holds an event that records index %d", i, h[i].ev.index)
		}
		if i > 0 && before(&h[i], &h[(i-1)/4]) {
			t.Fatalf("heap slot %d orders before its parent", i)
		}
	}
}

// The firing order is the wheel's, op for op: 150k operations over five
// deadline regimes.
func TestEventQueueMatchesWheel(t *testing.T) {
	instants := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 25 * time.Millisecond}
	for _, tc := range []struct {
		name string
		next func(rng *rand.Rand, now time.Duration) time.Duration
		post bool
	}{
		{"uniform", func(rng *rand.Rand, now time.Duration) time.Duration {
			return now + time.Duration(rng.Int63n(int64(50*time.Millisecond)))
		}, false},
		{"same-instant", func(rng *rand.Rand, now time.Duration) time.Duration {
			return now + instants[rng.Intn(len(instants))]
		}, false},
		{"sub-microsecond", func(rng *rand.Rand, now time.Duration) time.Duration {
			return now + time.Duration(rng.Int63n(int64(time.Microsecond)))
		}, false},
		{"post-during-drain", func(rng *rand.Rand, now time.Duration) time.Duration {
			return now + 2*time.Millisecond + time.Duration(rng.Int63n(4))*time.Microsecond
		}, true},
		{"arq-churn", func(rng *rand.Rand, now time.Duration) time.Duration {
			return now + 25*time.Millisecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newQueueVsWheel(t, int64(len(tc.name)))
			var post func()
			if tc.post {
				// A handler that posts work at the current instant,
				// sometimes two items, as Sim.Post does.
				post = func() {
					for n := d.rng.Intn(3); n > 0; n-- {
						d.arm(d.now)
					}
				}
			}
			d.run(30000, tc.next, post)
			if d.pops < 5000 {
				t.Fatalf("only %d pops: the regime does not exercise the queue", d.pops)
			}
		})
	}
}
