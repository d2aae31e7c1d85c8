package netsim

import "time"

// target is what an event fires: pop hands it back and the run loop
// calls Fire. The simulator's own timer and delivery records are the
// targets, so arming one builds no wrapper closure.
type target interface{ Fire() }

// funcTarget adapts a plain func to target. A func value fits an
// interface word as it is, so the conversion allocates nothing.
type funcTarget func()

// Fire calls f.
func (f funcTarget) Fire() { f() }

// event is one armed timer's cancellation handle. It is owned by the
// queue (taken from its pool, recycled on pop or cancel); callers must
// not touch it after its target fires or it is cancelled.
type event struct {
	target target
	index  int    // position in eventQueue.heap; -1 once popped or cancelled
	next   *event // free-list link
}

// queued is one heap slot. The (at, seq) key sits inline beside the
// event pointer, so sifting compares without dereferencing anything.
type queued struct {
	at  time.Duration
	seq uint64
	ev  *event
}

// eventQueue is the simulator's timer store: an indexed 4-ary min-heap
// keyed by (deadline, arm sequence), so events fire in deadline order
// and, at one instant, in arm order. Each event records its heap index,
// so cancel removes it where it sits: a cancelled event can never
// surface, move the clock or use up event budget. Event structs are
// pooled, so the steady-state arm/cancel churn of an ARQ sender
// allocates nothing. See DESIGN.md §9.
type eventQueue struct {
	heap []queued
	seq  uint64 // next arm sequence number (FIFO tie-break)
	free *event // recycled events, linked through next
}

// before is the firing order: (deadline, arm sequence).
func before(a, b *queued) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// arm schedules t at absolute deadline at and returns its handle.
func (q *eventQueue) arm(at time.Duration, t target) *event {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
	} else {
		e = &event{}
	}
	e.target = t
	q.heap = append(q.heap, queued{})
	q.up(len(q.heap)-1, queued{at: at, seq: q.seq, ev: e})
	q.seq++
	return e
}

// cancel removes a pending event and recycles it. It returns false (and
// does nothing) if the event already fired or was already cancelled.
func (q *eventQueue) cancel(e *event) bool {
	if e.index < 0 {
		return false
	}
	q.remove(e.index)
	q.release(e)
	return true
}

// pop removes the earliest event and returns its deadline and target.
// The queue must be non-empty. The event is recycled before the caller
// fires the target, so a handler that arms again reuses it.
func (q *eventQueue) pop() (time.Duration, target) {
	top := q.heap[0]
	q.remove(0)
	t := top.ev.target
	q.release(top.ev)
	return top.at, t
}

func (q *eventQueue) release(e *event) {
	e.target, e.index = nil, -1
	e.next, q.free = q.free, e
}

// remove empties heap slot i and refills it with the last entry, sifted
// to its place. The vacated tail slot keeps its stale event pointer:
// events live in the pool for the queue's lifetime anyway.
func (q *eventQueue) remove(i int) {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	switch {
	case i == n:
	case i > 0 && before(&last, &q.heap[(i-1)/4]):
		q.up(i, last)
	default:
		q.down(i, last)
	}
}

// up moves x from hole i toward the root to its place, recording the
// index of every entry it passes.
func (q *eventQueue) up(i int, x queued) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 4
		if !before(&x, &h[p]) {
			break
		}
		h[i] = h[p]
		h[i].ev.index = i
		i = p
	}
	h[i] = x
	x.ev.index = i
}

// down moves x from hole i toward the leaves, one level per step to the
// least of its up to four children.
func (q *eventQueue) down(i int, x queued) {
	h := q.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if before(&h[k], &h[m]) {
				m = k
			}
		}
		if !before(&h[m], &x) {
			break
		}
		h[i] = h[m]
		h[i].ev.index = i
		i = m
	}
	h[i] = x
	x.ev.index = i
}
