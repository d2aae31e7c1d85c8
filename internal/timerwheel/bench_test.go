package timerwheel

import (
	"container/heap"
	"testing"
	"time"
)

// BenchmarkTimerChurn measures the workload the wheel was built for:
// selective-repeat ARQ churn with 100k timers live at every instant.
// Each op retires the oldest in-flight timer — cancelled in 15/16 of
// cases (the ack arrived), expired and fired in 1/16 (a retransmission
// timeout) — and arms a fresh RTO timer, while virtual time advances
// underneath. The heap variant is the PR 2 indexed binary heap the
// wheel replaced: same pooling, same cancel-removes semantics, O(log n)
// per op against the wheel's O(1).
//
// Acceptance pins: wheel ≥ 2x heap ops/s at 100k live timers, and the
// wheel's steady state reports 0 allocs/op.
func BenchmarkTimerChurn(b *testing.B) {
	const (
		nLive = 100_000
		rto   = 20 * time.Millisecond
		// now advances 100ns per op: a timer armed now is retired
		// 100k ops ≈ 10ms later, half its RTO — cancels always hit
		// live timers, like an ack beating the retransmit timer.
		dt = 100 * time.Nanosecond
		// 1 in 16 timers is never acked: it expires and fires.
		fireEvery = 16
	)
	fn := Func(func() {})
	deadline := func(now time.Duration, i int) time.Duration {
		// Deterministic sub-tick jitter spreads deadlines across slots.
		return now + rto + time.Duration((i*7)&1023)
	}

	b.Run("wheel-100k", func(b *testing.B) {
		w := New(time.Microsecond)
		ring := make([]*Event, nLive)
		ats := make([]time.Duration, nLive)
		now := time.Duration(0)
		for i := 0; i < nLive; i++ {
			ats[i] = deadline(now, i)
			ring[i] = w.Arm(ats[i], fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += dt
			// Fire everything due (the unacked 1/16 as their RTOs
			// lapse). Fired events left the wheel, so the ring's stale
			// handle is recognised by its lapsed deadline, never
			// cancelled.
			for {
				at, ok := w.PeekDeadline()
				if !ok || at > now {
					break
				}
				_, target, _ := w.Pop()
				target.Fire()
			}
			slot := i % nLive
			if slot%fireEvery != 0 && ats[slot] > now {
				w.Cancel(ring[slot])
			}
			ats[slot] = deadline(now, i)
			ring[slot] = w.Arm(ats[slot], fn)
		}
	})

	b.Run("heap-100k", func(b *testing.B) {
		var (
			h    benchHeap
			pool []*benchEvent
			seq  uint64
		)
		arm := func(at time.Duration) *benchEvent {
			var e *benchEvent
			if n := len(pool); n > 0 {
				e = pool[n-1]
				pool = pool[:n-1]
			} else {
				e = &benchEvent{}
			}
			e.at, e.seq, e.fn = at, seq, fn
			seq++
			heap.Push(&h, e)
			return e
		}
		cancel := func(e *benchEvent) {
			if e.index < 0 {
				return
			}
			heap.Remove(&h, e.index)
			e.fn = nil
			pool = append(pool, e)
		}
		ring := make([]*benchEvent, nLive)
		ats := make([]time.Duration, nLive)
		now := time.Duration(0)
		for i := 0; i < nLive; i++ {
			ats[i] = deadline(now, i)
			ring[i] = arm(ats[i])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now += dt
			for h.Len() > 0 && h[0].at <= now {
				e := heap.Pop(&h).(*benchEvent)
				f := e.fn
				e.fn = nil
				pool = append(pool, e)
				f()
			}
			slot := i % nLive
			if slot%fireEvery != 0 && ats[slot] > now {
				cancel(ring[slot])
			}
			ats[slot] = deadline(now, i)
			ring[slot] = arm(ats[slot])
		}
	})
}

// benchEvent / benchHeap mirror netsim's PR 2 pooled indexed event heap
// (callbacks included, unlike the id-carrying differential refHeap).
type benchEvent struct {
	at    time.Duration
	seq   uint64
	fn    func()
	index int
}

type benchHeap []*benchEvent

func (h benchHeap) Len() int { return len(h) }
func (h benchHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h benchHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *benchHeap) Push(x any) {
	e := x.(*benchEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *benchHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}
