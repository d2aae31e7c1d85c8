package rtnet

import (
	"fmt"
	"os"
	"time"

	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/timerwheel"
)

// Loop is a shard's real-clock scheduler: the netsim.Runtime
// implementation protocol engines run against when they are attached to
// a real socket instead of a simulator.
//
// It keeps the simulator's timer guarantees — events fire in (deadline,
// arm-order) sequence, and Cancel physically removes the event, so a
// cancelled timer can never fire or cost the event loop anything — over
// a different store: a hierarchical timing wheel (internal/timerwheel)
// where the simulator keeps an indexed heap (DESIGN.md §9). Time is the
// host's monotonic clock, measured as a Duration since the owning
// Node's start so engine-visible timestamps look just like virtual
// ones. Deadlines stay exact; the wheel's granularity (64µs or so, on
// the order of the shard loop's poll quantum) only decides slot
// placement.
//
// A Loop belongs to exactly one shard goroutine. Now/After/Post must
// only be called from inside that shard's event loop (engine handlers,
// timer callbacks, and functions run via Node.Do / Flow.Do all qualify).
type Loop struct {
	start  time.Time
	wheel  *timerwheel.Wheel
	posted []func()
	obs    *obs.Shard // the owning shard's stats block
}

var _ netsim.Runtime = (*Loop)(nil)

// ObsShard exposes the owning shard's stats block (obs.Source): engines
// handed this Loop as their Runtime count retransmits and observe RTTs
// into it via obs.Of.
func (l *Loop) ObsShard() *obs.Shard { return l.obs }

// loopGranularity is the real-clock wheel tick (65.5µs): roughly the
// poll quantum of a shard loop blocking on a kernel timer, and an
// order of magnitude under even a 1ms RTO (engines typically arm tens
// of milliseconds, hundreds of ticks out). Granularity affects only
// slot residency — deadlines are not rounded.
const loopGranularity = 65536 * time.Nanosecond

func newLoop(start time.Time) *Loop {
	return &Loop{start: start, wheel: timerwheel.New(loopGranularity)}
}

// rtTimer is the real-clock netsim.Timer implementation. It is also the
// wheel event's target, so arming one allocates only the timer itself,
// and re-arming it (Reset) allocates nothing.
type rtTimer struct {
	loop  *Loop
	ev    *timerwheel.Event
	fn    func() // the callback; dropped once it fires or is cancelled
	fired bool
}

// Fire runs the callback (timerwheel.Target).
func (t *rtTimer) Fire() {
	fn := t.fn
	t.fired, t.ev, t.fn = true, nil, nil
	fn()
}

// Cancel prevents the timer from firing and removes its event from the
// wheel; cancelling an already-fired or already-cancelled timer is a
// no-op (the same contract as the simulator's timers).
func (t *rtTimer) Cancel() {
	if t.ev == nil {
		return
	}
	t.loop.wheel.Cancel(t.ev)
	t.ev, t.fn = nil, nil
}

// Reset re-arms the timer to run fn after real duration d, whether it
// is pending, fired or cancelled; it is then Active and not Fired. A
// pending timer's event is cancelled and armed again on the same
// handle: the wheel's pool hands the event straight back, and the new
// arm sequence gives the order Cancel plus After would.
func (t *rtTimer) Reset(d time.Duration, fn func()) {
	if t.ev != nil {
		t.loop.wheel.Cancel(t.ev)
	}
	t.fn, t.fired = fn, false
	t.ev = t.loop.wheel.Arm(t.loop.deadline(d), t)
}

// Fired reports whether the callback has run.
func (t *rtTimer) Fired() bool { return t.fired }

// Active reports whether the timer is still pending.
func (t *rtTimer) Active() bool { return t.ev != nil }

// Now returns the monotonic time since the node started.
func (l *Loop) Now() time.Duration { return time.Since(l.start) }

// After schedules fn to run after real duration d on this shard's loop.
func (l *Loop) After(d time.Duration, fn func()) netsim.Timer {
	t := &rtTimer{loop: l, fn: fn}
	t.ev = l.wheel.Arm(l.deadline(d), t)
	return t
}

// deadline is the wheel deadline of a timer armed now for d.
func (l *Loop) deadline(d time.Duration) time.Duration {
	return max(l.Now()+d, 0)
}

// Post schedules fn to run promptly, after work already queued for this
// wakeup.
func (l *Loop) Post(fn func()) { l.posted = append(l.posted, fn) }

// next returns the earliest pending timer deadline.
func (l *Loop) next() (time.Duration, bool) {
	return l.wheel.PeekDeadline()
}

// recovered is the shard loops' panic containment, installed with
// `defer l.recovered()` around every engine entry point (timer
// callbacks, posted functions, frame handlers, Do'd functions). A
// panicking engine loses its own state but cannot take down the shard
// loop — the other flows sharing it keep running. Each containment is
// counted (panics_recovered) and logged in one stderr line. The
// simulator deliberately has no equivalent: in a deterministic test an
// engine panic is a bug to surface, not an event to survive.
func (l *Loop) recovered() {
	if r := recover(); r != nil {
		if l.obs != nil {
			l.obs.Inc(obs.PanicsRecovered)
		}
		fmt.Fprintf(os.Stderr, "rtnet: engine panic contained: %v\n", r)
	}
}

// shielded fires one engine callback under panic containment: a timer
// popped from the wheel, or a plain func through timerwheel.Func. The
// defer/recover pair is alloc-free, so the steady-state loop stays at
// zero allocations per frame.
func (l *Loop) shielded(t timerwheel.Target) {
	defer l.recovered()
	t.Fire()
}

// shieldHandler is shielded for frame handlers (plain arguments, so the
// per-frame delivery path builds no closure).
func (l *Loop) shieldHandler(h func(netsim.Addr, []byte), from netsim.Addr, data []byte) {
	defer l.recovered()
	h(from, data)
}

// runDue fires every timer whose deadline has passed, interleaving
// posted functions the way the simulator does.
func (l *Loop) runDue() {
	for {
		now := time.Since(l.start)
		at, ok := l.wheel.PeekDeadline()
		if !ok || at > now {
			return
		}
		_, target, _ := l.wheel.Pop()
		l.shielded(target)
		l.runPosted()
	}
}

// runPosted drains the posted-function queue (functions it runs may
// post more; those run too).
func (l *Loop) runPosted() {
	for len(l.posted) > 0 {
		fn := l.posted[0]
		// Shift rather than swap: posted order is FIFO, as in the
		// simulator's same-instant event ordering.
		copy(l.posted, l.posted[1:])
		l.posted[len(l.posted)-1] = nil
		l.posted = l.posted[:len(l.posted)-1]
		l.shielded(timerwheel.Func(fn))
	}
}
