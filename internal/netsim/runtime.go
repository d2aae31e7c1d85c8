package netsim

import "time"

// Timer is a cancellable scheduled callback, the primitive protocol
// timeouts are built from. The simulator's timers run on virtual time;
// internal/rtnet's run on the monotonic real clock — both honour the
// same guarantee: Cancel really cancels. A cancelled timer's callback
// never runs, the timer costs the event loop nothing, and (in the
// simulator) it can never advance virtual time.
//
// Both substrates' timers can also be re-armed in place: Rearm resets
// one to a new deadline and callback without allocating, where After
// allocates a fresh handle per arm. A Timer from another Runtime
// implementation (a tracing wrapper, say) needs only the three methods
// here; Rearm falls back to Cancel plus a fresh After for it.
type Timer interface {
	// Cancel prevents the timer from firing. Cancelling an already-fired
	// or already-cancelled timer is a no-op.
	Cancel()
	// Fired reports whether the callback has run.
	Fired() bool
	// Active reports whether the timer is still pending.
	Active() bool
}

// Runtime is the scheduling surface protocol engines run against. It is
// the seam between simulation and deployment: internal/arq's engines
// take a Runtime plus Ports and never know whether time is virtual
// (*Sim, deterministic discrete events) or real (an rtnet shard loop
// over a UDP socket).
//
// Implementations share the simulator's concurrency contract: a Runtime
// and everything attached to it belong to one goroutine (or one event
// loop), so engine callbacks — packet handlers, timer callbacks, posted
// functions — never race with one another.
type Runtime interface {
	// Now returns the current time as a monotonic duration since the
	// runtime's zero (simulation start, or socket creation for rtnet).
	Now() time.Duration
	// After schedules fn to run after duration d and returns a
	// cancellable timer.
	After(d time.Duration, fn func()) Timer
	// Post schedules fn to run "immediately": at the current time, after
	// any work already queued for this instant.
	Post(fn func())
}

var _ Runtime = (*Sim)(nil)

// resetter is a Timer that can be re-armed in place: the simulator's
// and rtnet's timers.
type resetter interface {
	Timer
	Reset(d time.Duration, fn func())
}

// Rearm schedules fn to run after d on rt and returns the pending
// timer, reusing t if it can: a timer with a Reset method is re-armed
// in place, whether pending, fired or cancelled, and nothing is
// allocated; any other timer is cancelled and replaced by rt.After, and
// a nil t is simply replaced. Either way the firing order is the one
// Cancel plus After gives. t must be nil or a timer rt.After returned.
func Rearm(rt Runtime, t Timer, d time.Duration, fn func()) Timer {
	switch t := t.(type) {
	case nil:
	case resetter:
		t.Reset(d, fn)
		return t
	default:
		t.Cancel()
	}
	return rt.After(d, fn)
}
