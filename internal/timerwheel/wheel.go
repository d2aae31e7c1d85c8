// Package timerwheel is the shared O(1) timer store under both event
// cores: netsim.Sim (virtual time) and rtnet.Loop (real monotonic time)
// park their pending timers here instead of a binary heap.
//
// It is a hierarchical timing wheel (Varghese & Lauck): 11 levels of 64
// slots each, level ℓ slots spanning 64^ℓ ticks, so any 64-bit tick
// value has a home and arm/cancel are O(1) — a shift, a mask and a
// doubly-linked-list splice. Advancing jumps straight to the next
// occupied slot using one occupancy bitmap word per level (no per-tick
// scan), cascading higher-level slots down as their horizon arrives;
// each event cascades at most once per level, so advancement is O(1)
// amortised per event.
//
// Determinism contract (what makes the wheel byte-identical to the heap
// it replaced): events fire in strict (deadline, arm-order) order. The
// tick granularity quantises only *placement* — every event keeps its
// exact deadline, and a due slot is drained through a buffer ordered by
// (deadline, sequence), so two events one nanosecond apart in the same
// tick still fire in deadline order, and events at the same instant
// fire FIFO in arm order. See DESIGN.md §9 for the layout and the
// determinism argument.
//
// Cancellation really cancels: Cancel unlinks the event from its slot
// (or due buffer) immediately — a cancelled timer cannot fire, cannot
// hold memory beyond the free pool, and costs advancement nothing.
// Event structs are pooled and recycled across arm/fire/cancel cycles;
// the steady-state arm/cancel churn of an ARQ sender allocates nothing.
//
// An event carries a Target — anything with a Fire method — rather
// than a func(). The owner's own timer or delivery record is the
// target, so arming one builds no wrapper closure; a plain func rides
// through the Func adapter, which allocates nothing either.
//
// Concurrency: a Wheel belongs to exactly one goroutine (the event loop
// that owns it), exactly like the Sim or Loop wrapping it.
package timerwheel

import (
	"math/bits"
	"sort"
	"time"
)

const (
	slotBits = 6
	numSlots = 1 << slotBits // 64
	slotMask = numSlots - 1
	// 11 levels × 6 bits = 66 bits ≥ any 64-bit tick, so no overflow
	// list is needed: every future deadline has a slot.
	numLevels = 11
)

// Target is what an event fires: Pop hands it back and the owning
// event loop calls Fire.
type Target interface{ Fire() }

// Func adapts a plain func to Target. A func value fits an interface
// word as it is, so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

// Event is one armed timer. It is owned by the wheel (allocated from
// its pool, recycled on fire/cancel); callers hold it only as an opaque
// cancellation handle and must not touch it after Fire or Cancel.
type Event struct {
	at     time.Duration
	seq    uint64
	target Target

	prev, next *Event // intrusive slot list links (nil while due/free)
	level      int8   // slot level, or levelDue / levelFree
	slot       int8
}

const (
	levelDue  int8 = -1 // harvested into the due buffer
	levelFree int8 = -2 // in the free pool (fired or cancelled)
)

type slotList struct{ head, tail *Event }

func (l *slotList) push(e *Event) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *slotList) unlink(e *Event) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

type wheelLevel struct {
	occ   uint64 // bit s set ⇔ slots[s] non-empty
	slots [numSlots]slotList
}

// Wheel is a hierarchical timing wheel. Create with New.
type Wheel struct {
	shift uint   // log2 of the tick granularity in nanoseconds
	cur   uint64 // current tick: all events at earlier ticks have been harvested
	seq   uint64 // next arm sequence number (FIFO tie-break)
	size  int    // live (armed, unfired, uncancelled) events

	levels [numLevels]wheelLevel

	// due holds harvested and same-tick events in (at, seq) order;
	// dueHead indexes the next event to pop. All due events share the
	// current tick, so deadlines differing only within one granule
	// still fire in exact deadline order.
	due     []*Event
	dueHead int

	free  *Event // free pool, linked through next
	freeN int
}

// New creates a wheel whose tick granularity is the given duration
// rounded up to a power of two nanoseconds (minimum 1ns). Granularity
// trades slot residency against cascade depth; it never affects firing
// order or deadlines, which stay exact.
func New(granularity time.Duration) *Wheel {
	if granularity < 1 {
		granularity = 1
	}
	shift := uint(bits.Len64(uint64(granularity) - 1))
	return &Wheel{shift: shift}
}

// Len returns the number of live events.
func (w *Wheel) Len() int { return w.size }

// PooledEvents returns the size of the free pool (recycled event
// structs awaiting reuse); the arm/cancel churn tests pin it.
func (w *Wheel) PooledEvents() int { return w.freeN }

func (w *Wheel) tickOf(at time.Duration) uint64 {
	if at < 0 {
		at = 0
	}
	return uint64(at) >> w.shift
}

func (w *Wheel) alloc() *Event {
	if e := w.free; e != nil {
		w.free = e.next
		e.next = nil
		w.freeN--
		return e
	}
	return &Event{}
}

func (w *Wheel) release(e *Event) {
	e.target = nil
	e.prev = nil
	e.level = levelFree
	e.next = w.free
	w.free = e
	w.freeN++
}

// Arm schedules target at absolute deadline at and returns the event as
// a cancellation handle. Deadlines may be in the "past" relative to the
// wheel's advancement (e.g. Post-at-now while draining the current
// instant); they join the due buffer in exact (at, seq) position.
func (w *Wheel) Arm(at time.Duration, target Target) *Event {
	e := w.alloc()
	e.at, e.seq, e.target = at, w.seq, target
	w.seq++
	w.size++
	if t := w.tickOf(at); t > w.cur {
		w.place(e, t)
	} else {
		w.pushDue(e)
	}
	return e
}

// place links e into the slot owning tick t (t > w.cur).
func (w *Wheel) place(e *Event, t uint64) {
	delta := t - w.cur
	lvl := (bits.Len64(delta) - 1) / slotBits
	slot := int((t >> (slotBits * uint(lvl))) & slotMask)
	e.level, e.slot = int8(lvl), int8(slot)
	l := &w.levels[lvl]
	l.occ |= 1 << uint(slot)
	l.slots[slot].push(e)
}

// pushDue inserts e into the due buffer at its (at, seq) position. The
// common case — a new arm later than everything pending — appends.
func (w *Wheel) pushDue(e *Event) {
	e.level = levelDue
	live := w.due[w.dueHead:]
	i := sort.Search(len(live), func(i int) bool {
		o := live[i]
		if o.at != e.at {
			return o.at > e.at
		}
		return o.seq > e.seq
	})
	w.due = append(w.due, nil)
	copy(w.due[w.dueHead+i+1:], w.due[w.dueHead+i:])
	w.due[w.dueHead+i] = e
}

// Cancel unlinks a still-pending event and recycles it. It returns
// false (and does nothing) if the event already fired or was already
// cancelled — the caller-facing Timer wrappers clear their handle on
// fire, so a stale handle is never passed here in practice.
func (w *Wheel) Cancel(e *Event) bool {
	switch e.level {
	case levelFree:
		return false
	case levelDue:
		live := w.due[w.dueHead:]
		i := sort.Search(len(live), func(i int) bool {
			o := live[i]
			if o.at != e.at {
				return o.at >= e.at
			}
			return o.seq >= e.seq
		})
		if i >= len(live) || live[i] != e {
			return false // not present (already popped)
		}
		copy(live[i:], live[i+1:])
		w.due[len(w.due)-1] = nil
		w.due = w.due[:len(w.due)-1]
	default:
		l := &w.levels[e.level]
		l.slots[e.slot].unlink(e)
		if l.slots[e.slot].head == nil {
			l.occ &^= 1 << uint(e.slot)
		}
	}
	w.size--
	w.release(e)
	return true
}

// PeekDeadline returns the earliest pending deadline without firing
// anything.
func (w *Wheel) PeekDeadline() (time.Duration, bool) {
	if w.size == 0 {
		return 0, false
	}
	w.prime()
	return w.due[w.dueHead].at, true
}

// Pop removes and returns the earliest pending event's deadline and
// target; ok is false when the wheel is empty. The event struct is
// recycled before the caller fires the target, mirroring the heap
// cores' pop-then-call shape.
func (w *Wheel) Pop() (at time.Duration, target Target, ok bool) {
	if w.size == 0 {
		return 0, nil, false
	}
	w.prime()
	e := w.due[w.dueHead]
	w.due[w.dueHead] = nil
	w.dueHead++
	at, target = e.at, e.target
	w.size--
	w.release(e)
	return at, target, true
}

// prime ensures the due buffer holds the earliest pending events,
// advancing the wheel cursor to the next occupied slot (bitmap jump, no
// per-tick scan) and cascading higher levels down as their horizon
// arrives. Callers guarantee size > 0.
func (w *Wheel) prime() {
	if w.dueHead < len(w.due) {
		return
	}
	w.due = w.due[:0]
	w.dueHead = 0
	// The loop exits as soon as anything lands in due — via a level-0
	// harvest, or via a cascade dropping an event whose tick the cursor
	// just reached.
	for len(w.due) == 0 {
		// Level 0: any occupied slot at or after the cursor digit fires
		// next — its tick precedes every boundary a cascade could fill.
		d0 := uint(w.cur) & slotMask
		if rest := w.levels[0].occ >> d0; rest != 0 {
			s := d0 + uint(bits.TrailingZeros64(rest))
			w.cur = (w.cur &^ uint64(slotMask)) | uint64(s)
			w.harvest(int(s))
			break
		}
		// Nothing left in level 0's current cycle: cross the next slot
		// boundary. lower tracks occupancy below the level under
		// consideration — non-empty means wrapped entries that become
		// current after a single +1 step of this level's digit.
		lower := w.levels[0].occ
		advanced := false
		for lvl := 1; lvl < numLevels; lvl++ {
			shift := slotBits * uint(lvl)
			dl := uint(w.cur>>shift) & slotMask
			if lower != 0 {
				w.stepCur(((w.cur >> shift) + 1) << shift)
				advanced = true
				break
			}
			// The cursor's own slot holds only next-cycle entries
			// (cascaded away on entry), so search strictly above it.
			if rest := w.levels[lvl].occ >> dl >> 1; rest != 0 {
				s := dl + 1 + uint(bits.TrailingZeros64(rest))
				base := w.cur &^ ((uint64(1) << (shift + slotBits)) - 1)
				w.stepCur(base | uint64(s)<<shift)
				advanced = true
				break
			}
			lower |= w.levels[lvl].occ
		}
		if !advanced {
			panic("timerwheel: size > 0 but no occupied slot found")
		}
	}
	// A boundary-crossing cascade drops events at exactly the current
	// tick straight into due — but the cursor's own level-0 slot may
	// hold more events at that same tick (wrapped entries from before
	// the crossing). Every event in slot (0, cur&mask) provably shares
	// the current tick (a same-slot later-cycle tick would need an arm
	// from the future), so harvest it before sorting: the due buffer
	// must see *every* event due at this instant or the earliest one
	// can stay buried.
	if d0 := uint(w.cur) & slotMask; w.levels[0].occ&(1<<d0) != 0 {
		w.harvest(int(d0))
	}
	sortDue(w.due)
}

// stepCur moves the cursor to newCur (a slot boundary: digits below the
// changed level are zero) and cascades every slot the cursor just
// entered, highest changed level first. Cascaded events re-place by
// their current delta, so entries whose horizon has arrived drop
// levels, and next-cycle entries that merely share the slot index
// re-home correctly.
func (w *Wheel) stepCur(newCur uint64) {
	top := (bits.Len64(newCur^w.cur) - 1) / slotBits
	w.cur = newCur
	for lvl := top; lvl >= 1; lvl-- {
		d := uint(newCur>>(slotBits*uint(lvl))) & slotMask
		if w.levels[lvl].occ&(1<<d) != 0 {
			w.cascade(lvl, int(d))
		}
	}
}

// cascade detaches slot (lvl, s) and re-places each event relative to
// the current cursor.
func (w *Wheel) cascade(lvl, s int) {
	l := &w.levels[lvl]
	e := l.slots[s].head
	l.slots[s] = slotList{}
	l.occ &^= 1 << uint(s)
	for e != nil {
		next := e.next
		e.prev, e.next = nil, nil
		if t := w.tickOf(e.at); t > w.cur {
			w.place(e, t)
		} else {
			// Cursor reached the event's tick: it is due. prime sorts
			// the buffer before anyone reads it.
			e.level = levelDue
			w.due = append(w.due, e)
		}
		e = next
	}
}

// harvest drains level-0 slot s — whose events all share the current
// tick — into the due buffer; prime sorts it by (at, seq) afterwards.
func (w *Wheel) harvest(s int) {
	l := &w.levels[0]
	e := l.slots[s].head
	l.slots[s] = slotList{}
	l.occ &^= 1 << uint(s)
	for e != nil {
		next := e.next
		e.prev, e.next = nil, nil
		e.level = levelDue
		w.due = append(w.due, e)
		e = next
	}
}

// sortDue orders a freshly harvested due buffer by (at, seq). Small
// buffers (the overwhelmingly common case) use insertion sort; larger
// ones an in-place heapsort — both allocation-free and deterministic
// (the (at, seq) key is total, so stability is irrelevant).
func sortDue(due []*Event) {
	if len(due) <= 32 {
		for i := 1; i < len(due); i++ {
			e := due[i]
			j := i
			for j > 0 && dueAfter(due[j-1], e) {
				due[j] = due[j-1]
				j--
			}
			due[j] = e
		}
		return
	}
	sort.Sort(dueSlice(due))
}

func dueAfter(a, b *Event) bool {
	if a.at != b.at {
		return a.at > b.at
	}
	return a.seq > b.seq
}

type dueSlice []*Event

func (d dueSlice) Len() int           { return len(d) }
func (d dueSlice) Less(i, j int) bool { return dueAfter(d[j], d[i]) }
func (d dueSlice) Swap(i, j int)      { d[i], d[j] = d[j], d[i] }
