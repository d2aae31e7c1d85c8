package verify

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// TestTraceReplayInvariantViolations proves counter-example traces are
// evidence, not decoration: replaying a violation's move sequence from
// the initial state must land in a state where the invariant fails.
func TestTraceReplayInvariantViolations(t *testing.T) {
	cases := []struct {
		name string
		sys  func() (*System, error)
		inv  Invariant
	}{
		{"arq-broken-guard", func() (*System, error) {
			return BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 2, BrokenAckGuard: true})
		}, StopAndWaitInvariant(4)},
		{"gbn-undersized-seqspace", func() (*System, error) {
			return BuildGBN(GBNOptions{SeqSpace: 3, Window: 3, Total: 4, Capacity: 2, Lossy: true})
		}, GBNInvariant(3)},
		{"sr-undersized-seqspace", func() (*System, error) {
			return BuildSR(SROptions{SeqSpace: 3, Total: 3, Capacity: 2, Lossy: true})
		}, SRInvariant(3)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sys, err := tc.sys()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				res, err := Explore(sys, Options{
					MaxStates:  1 << 20,
					Invariants: []Invariant{tc.inv},
					Workers:    workers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Violations) == 0 {
					t.Fatal("seeded bug produced no violations")
				}
				checked := 0
				for _, v := range res.Violations {
					if v.Kind != ViolationInvariant {
						continue
					}
					moves := mustMoves(t, v)
					if len(moves) != v.Depth {
						t.Errorf("workers=%d: trace length %d != depth %d", workers, len(moves), v.Depth)
					}
					ms, _, err := Replay(sys, moves)
					if err != nil {
						t.Fatalf("workers=%d: trace does not replay: %v", workers, err)
					}
					if ierr := tc.inv.evalMachines(ms); ierr == nil {
						t.Errorf("workers=%d: replayed trace %v does not violate %s", workers, mustTrace(t, v), tc.inv.Name)
					} else if ierr.Error() != v.Msg {
						t.Errorf("workers=%d: replayed violation %q, reported %q", workers, ierr, v.Msg)
					}
					checked++
					if checked >= 25 {
						break // the full violation set is covered by the differential test
					}
				}
				if checked == 0 {
					t.Fatal("no invariant violations to replay")
				}
			}
		})
	}
}

// divByZeroSystem steps into a division by zero on the first stimulus:
// the machine's x starts at 0 and the TICK assign evaluates 1 % x.
func divByZeroSystem() *System {
	spec := &fsm.Spec{
		Name:   "Crash",
		Vars:   []fsm.Var{{Name: "x", Type: expr.TU8}},
		States: []fsm.State{{Name: "Run", Init: true}, {Name: "Done", Final: true}},
		Events: []fsm.Event{{Name: "TICK"}, {Name: "STOP"}},
		Transitions: []fsm.Transition{
			{Name: "tick", From: "Run", Event: "TICK", To: "Run",
				Assigns: []fsm.Assign{{Var: "x", Expr: expr.MustParse("1 % x")}}},
			{Name: "stop", From: "Run", Event: "STOP", To: "Done"},
		},
		Messages: modelMessages(),
	}
	return &System{
		Specs: []*fsm.Spec{spec},
		Env:   []EnvEvent{{Machine: 0, Event: "TICK"}, {Machine: 0, Event: "STOP"}},
	}
}

// TestTraceReplayStepError pins step-error violations: the trace's final
// move is the one that faults, so replaying all but the last move
// succeeds and replaying the full trace reports the fault.
func TestTraceReplayStepError(t *testing.T) {
	sys := divByZeroSystem()
	for _, workers := range []int{1, 4} {
		res, err := Explore(sys, Options{MaxStates: 100, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var step *Violation
		for i := range res.Violations {
			if res.Violations[i].Kind == ViolationStep {
				step = &res.Violations[i]
				break
			}
		}
		if step == nil {
			t.Fatalf("workers=%d: no step violation; got %v", workers, res.Violations)
		}
		if !strings.Contains(step.Msg, "division by zero") {
			t.Errorf("workers=%d: step violation msg = %q", workers, step.Msg)
		}
		moves := mustMoves(t, *step)
		if len(moves) == 0 {
			t.Fatal("step violation has no trace")
		}
		if _, _, err := Replay(sys, moves[:len(moves)-1]); err != nil {
			t.Errorf("workers=%d: trace prefix does not replay: %v", workers, err)
		}
		if _, _, err := Replay(sys, moves); err == nil {
			t.Errorf("workers=%d: replaying the faulting move did not fault", workers)
		} else if !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("workers=%d: replay error = %v", workers, err)
		}
	}
}

// TestTraceReplayDeadlock replays a deadlock trace and then proves the
// reported state is genuinely stuck: every enabled move either bounces
// off the machines or leaves the global state unchanged.
func TestTraceReplayDeadlock(t *testing.T) {
	sys := handshakeDeadlock()
	res, err := Explore(sys, Options{MaxStates: 10000, CheckDeadlock: true})
	if err != nil {
		t.Fatal(err)
	}
	var dl *Violation
	for i := range res.Violations {
		if res.Violations[i].Kind == ViolationDeadlock {
			dl = &res.Violations[i]
			break
		}
	}
	if dl == nil {
		t.Fatal("no deadlock violation")
	}
	dlMoves := mustMoves(t, *dl)
	replayed, _, err := Replay(sys, dlMoves)
	if err != nil {
		t.Fatalf("deadlock trace does not replay: %v", err)
	}
	if st := replayed[0].State(); st != "Waiting" {
		t.Errorf("machine A deadlocked in %q, want Waiting", st)
	}

	// Rebuild the deadlocked configuration and exhaust its moves.
	b, err := compileSystem(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := newMachines(b.progs)
	queues := make([][]expr.Value, len(sys.Routes))
	deliverArgs := deliverArgsFor(sys)
	for _, mv := range dlMoves {
		if _, err := applyMove(sys, ms, queues, mv, deliverArgs, nil); err != nil {
			t.Fatal(err)
		}
	}
	before := encodeGlobal(sys, ms, queues, nil)
	for _, mv := range enabledMoves(sys, ms, queues, nil) {
		msCopy := make([]*fsm.Machine, len(ms))
		for i, m := range ms {
			msCopy[i] = m.Clone()
		}
		qCopy := make([][]expr.Value, len(queues))
		copy(qCopy, queues)
		ar, err := applyMove(sys, msCopy, qCopy, mv, deliverArgs, nil)
		if err != nil {
			continue
		}
		if ar.envNoop {
			continue
		}
		if after := encodeGlobal(sys, msCopy, qCopy, nil); !bytes.Equal(before, after) {
			t.Errorf("deadlock state has productive move %s", mv.String())
		}
	}
}

// TestOverrunRegression is the bugfix sweep's regression test: channel
// overruns — a send into a full route silently dropping the oldest
// message — were previously invisible. They must now be counted, be
// identical across engines and worker counts, and be promotable to
// violations via the OverrunInvariant hook with a replayable trace.
func TestOverrunRegression(t *testing.T) {
	// Stop-and-wait with capacity 1: a retransmission into the full data
	// route overruns it.
	sys, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := ExploreSequential(sys, Options{MaxStates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Overruns[0] == 0 {
		t.Fatal("capacity-1 stop-and-wait produced no data-route overruns")
	}
	for _, workers := range []int{1, 2, 4} {
		par, err := Explore(sys, Options{MaxStates: 1 << 20, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for ri := range seq.Overruns {
			if par.Overruns[ri] != seq.Overruns[ri] {
				t.Errorf("workers=%d: route %d overruns = %d, want %d",
					workers, ri, par.Overruns[ri], seq.Overruns[ri])
			}
		}
	}

	// Promote overruns on the data route to violations.
	overrunInv := func(route int, dropped expr.Value) error {
		if route == 0 {
			return errDataOverrun
		}
		return nil
	}
	res, err := Explore(sys, Options{
		MaxStates:        1 << 20,
		OverrunInvariant: overrunInv,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, v := range res.Violations {
		if v.Kind != ViolationOverrun {
			t.Errorf("unexpected violation kind %q", v.Kind)
			continue
		}
		if v.Msg != errDataOverrun.Error() {
			t.Errorf("overrun msg = %q", v.Msg)
		}
		moves := mustMoves(t, v)
		if len(moves) == 0 {
			t.Fatal("overrun violation has no trace")
		}
		_, overruns, err := Replay(sys, moves)
		if err != nil {
			t.Fatalf("overrun trace does not replay: %v", err)
		}
		if overruns[0] == 0 {
			t.Errorf("replayed overrun trace %v drops nothing on route 0", mustTrace(t, v))
		}
		found++
		if found >= 10 {
			break
		}
	}
	if found == 0 {
		t.Fatal("OverrunInvariant produced no violations")
	}
}

var errDataOverrun = errors.New("data route must never overrun")

// Replay re-executes a counter-example move sequence from the initial
// state, returning the final machines and the per-route overrun counts
// observed along the way. A move that fails to apply returns the error
// with the machines at the point of failure — which is exactly what a
// step-error violation's final move is expected to do.
func Replay(sys *System, moves []Move) ([]*fsm.Machine, []uint64, error) {
	b, err := compileSystem(sys, nil)
	if err != nil {
		return nil, nil, err
	}
	ms := newMachines(b.progs)
	queues := make([][]expr.Value, len(sys.Routes))
	overruns := make([]uint64, len(sys.Routes))
	deliverArgs := deliverArgsFor(sys)
	onOverrun := func(ri int, _ expr.Value) { overruns[ri]++ }
	for i, mv := range moves {
		if mv.Kind != MoveEnv && (mv.Route < 0 || mv.Route >= len(sys.Routes)) {
			return ms, overruns, fmt.Errorf("verify: replay move %d (%s): route out of range", i, mv)
		}
		if mv.Kind == MoveEnv && (mv.Env < 0 || mv.Env >= len(sys.Env)) {
			return ms, overruns, fmt.Errorf("verify: replay move %d (%s): env event out of range", i, mv)
		}
		if mv.Kind != MoveEnv && mv.QIdx >= len(queues[mv.Route]) {
			return ms, overruns, fmt.Errorf("verify: replay move %d (%s): queue index out of range", i, mv)
		}
		if _, err := applyMove(sys, ms, queues, mv, deliverArgs, onOverrun); err != nil {
			return ms, overruns, fmt.Errorf("verify: replay move %d (%s): %w", i, mv, err)
		}
	}
	return ms, overruns, nil
}

// mustMoves builds a violation's counter-example.
func mustMoves(t testing.TB, v Violation) []Move {
	t.Helper()
	moves, err := v.Moves()
	if err != nil {
		t.Fatalf("%s %s: building the trace: %v", v.Kind, v.Name, err)
	}
	return moves
}

// mustTrace renders a violation's counter-example.
func mustTrace(t testing.TB, v Violation) []string {
	t.Helper()
	trace, err := v.Trace()
	if err != nil {
		t.Fatalf("%s %s: rendering the trace: %v", v.Kind, v.Name, err)
	}
	return trace
}

// srUnsafe is the grid's violating selective-repeat target: 9,447 states
// and 4,017 invariant violations at depths up to 26.
func srUnsafe(t testing.TB) (*System, Options) {
	t.Helper()
	sys, err := BuildSR(SROptions{SeqSpace: 5, Window: 3, Total: 4, Capacity: 2, Lossy: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys, Options{Invariants: []Invariant{SRInvariantW(5, 3)}}
}

// TestExploreBuildsNoTraces bounds what one Explore of srUnsafe
// allocates. Traces are built on demand, so the search pays only for
// the violations' anchors; building all 4,017 traces inside Explore
// roughly doubles the figure and fails the bound.
func TestExploreBuildsNoTraces(t *testing.T) {
	const ceiling = 9 << 20
	sys, opts := srUnsafe(t)
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := Explore(sys, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 4017 {
			t.Fatalf("workers=%d: %d violations, want 4017", workers, len(res.Violations))
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		if alloc > ceiling {
			t.Errorf("workers=%d: Explore allocated %.1f MB, ceiling %.0f MB", workers, float64(alloc)/(1<<20), float64(ceiling)/(1<<20))
		} else {
			t.Logf("workers=%d: Explore allocated %.1f MB", workers, float64(alloc)/(1<<20))
		}
	}
}

// TestLazyTracesConcurrent builds the traces of one Result from several
// goroutines at once: each must equal the trace a single goroutine
// builds from a second, identical search, whichever goroutine reaches a
// shared prefix first. One search worker makes the parent chains, and
// so the literal traces, the same in both searches.
func TestLazyTracesConcurrent(t *testing.T) {
	sys, opts := srUnsafe(t)
	opts.Workers = 1
	res, err := Explore(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Explore(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := res.Violations
	const goroutines = 4
	got := make([][][]Move, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = make([][]Move, len(vs))
			// Each goroutine walks the report from its own offset, so
			// they race on different violations' shared prefixes.
			for k := range vs {
				i := (k + g*len(vs)/goroutines) % len(vs)
				moves, err := vs[i].Moves()
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = moves
			}
		}()
	}
	wg.Wait()
	for i, v := range ref.Violations {
		want := fmt.Sprint(mustMoves(t, v))
		for g := range got {
			if s := fmt.Sprint(got[g][i]); s != want {
				t.Fatalf("violation %d: goroutine %d built %s, want %s", i, g, s, want)
			}
		}
	}
}
