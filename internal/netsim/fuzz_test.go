package netsim

import (
	"container/heap"
	"testing"
	"time"
)

// FuzzEventOrder holds the determinism contract under arbitrary
// arm/cancel/pop sequences: the event queue pops exactly what a
// container/heap reference on the same (deadline, arm sequence) key
// pops. Each operation is one byte, its low two bits the kind and the
// rest its argument: 0 and 1 arm at now plus the argument in 256 ns
// steps (so equal bytes make same-instant ties and adjacent ones sit
// 256 ns apart), 2 cancels the event in the queue's heap slot argument
// mod its length, 3 pops.
func FuzzEventOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 3, 3})
	f.Add([]byte{4, 8, 4, 2, 3, 6, 3, 3})
	f.Add([]byte{0xfc, 0x00, 0x80, 0x7e, 0x02, 0x06, 0x0a, 0x03, 0x03})

	f.Fuzz(func(t *testing.T, ops []byte) {
		var (
			q   eventQueue
			ref refHeap
			now time.Duration
			seq uint64
		)
		pop := func() {
			want := heap.Pop(&ref).(*refEvent)
			at, got := q.pop()
			if at != want.at || got != want.tgt {
				t.Fatalf("queue popped event %d at %s, reference event %d at %s",
					got.(*probe).id, at, want.tgt.(*probe).id, want.at)
			}
			now = at
		}
		for _, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0, 1:
				at := now + time.Duration(arg)*256
				p := &probe{id: int(seq)}
				heap.Push(&ref, &refEvent{at: at, seq: seq, tgt: p, ev: q.arm(at, p)})
				seq++
			case 2:
				if len(ref) == 0 {
					continue
				}
				e := q.heap[arg%len(q.heap)].ev
				i := 0
				for ref[i].ev != e {
					i++
				}
				if !q.cancel(e) {
					t.Fatalf("cancel of live event at %s refused", ref[i].at)
				}
				heap.Remove(&ref, i)
			case 3:
				if len(ref) > 0 {
					pop()
				}
			}
			if len(q.heap) != len(ref) {
				t.Fatalf("queue holds %d events, reference %d", len(q.heap), len(ref))
			}
			checkHeap(t, &q)
		}
		for len(ref) > 0 {
			pop()
		}
	})
}

// refEvent and refHeap are a container/heap reference for the event
// order: a binary heap on the same (deadline, arm sequence) key.
type refEvent struct {
	at    time.Duration
	seq   uint64
	tgt   target
	ev    *event // the queue's handle, for cancel
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
