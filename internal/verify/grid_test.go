package verify

import (
	"fmt"
	"strings"
	"testing"
)

// gridPin is one model target of the benchmark's verify_grid workload
// with its exploration figures pinned.
type gridPin struct {
	name        string
	build       func() (*System, error)
	inv         Invariant
	states      int
	transitions int
	violations  int
	overruns    string
	depth       int
}

func gridPins() []gridPin {
	return []gridPin{
		{"gbn n=12 w=5 t=8 c=2 lossy+reorder", func() (*System, error) {
			return BuildGBN(GBNOptions{SeqSpace: 12, Window: 5, Total: 8, Capacity: 2, Lossy: true, Reorder: true})
		}, GBNInvariant(12), 16301, 132154, 0, "[41060 9198]", 27},
		{"gbn n=3 w=3 t=4 c=2 lossy", func() (*System, error) {
			return BuildGBN(GBNOptions{SeqSpace: 3, Window: 3, Total: 4, Capacity: 2, Lossy: true})
		}, GBNInvariant(3), 499, 2521, 73, "[403 113]", 15},
		{"sr n=6 w=3", func() (*System, error) {
			return BuildSR(SROptions{SeqSpace: 6, Window: 3, Total: 4, Capacity: 2, Lossy: true})
		}, SRInvariantW(6, 3), 5538, 45827, 0, "[7386 2653]", 20},
		{"sr n=5 w=3", func() (*System, error) {
			return BuildSR(SROptions{SeqSpace: 5, Window: 3, Total: 4, Capacity: 2, Lossy: true})
		}, SRInvariantW(5, 3), 9447, 77786, 4017, "[11717 4545]", 26},
		{"hs c=2 reorder reinc", func() (*System, error) {
			return BuildHandshake(HSOptions{Capacity: 2, Reorder: true, Reincarnate: true})
		}, HSInvariant(), 2324, 30048, 0, "[25 0 0 221 0]", 26},
		{"hs no-TIME_WAIT", func() (*System, error) {
			return BuildHandshake(HSOptions{Capacity: 2, Reorder: true, Reincarnate: true, Mutant: MutantNoTimeWait})
		}, HSInvariant(), 4802, 64590, 115, "[69 0 69 500 46]", 25},
	}
}

// TestGridGolden pins the verify_grid model targets — state, transition,
// violation and overrun counts and BFS depth — at 1, 2 and 4 workers. The
// sorted violation report must be identical across worker counts, and
// every violation's trace must replay to the violation it reports.
func TestGridGolden(t *testing.T) {
	for _, pin := range gridPins() {
		t.Run(pin.name, func(t *testing.T) {
			sys, err := pin.build()
			if err != nil {
				t.Fatal(err)
			}
			var report string
			for _, workers := range []int{1, 2, 4} {
				res, err := Explore(sys, Options{Invariants: []Invariant{pin.inv}, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%d/%d/%d/%v/%d", res.States, res.Transitions, len(res.Violations), res.Overruns, res.Stats.Depth)
				want := fmt.Sprintf("%d/%d/%d/%s/%d", pin.states, pin.transitions, pin.violations, pin.overruns, pin.depth)
				if got != want || res.Truncated {
					t.Fatalf("workers=%d: %s (truncated=%v), want %s", workers, got, res.Truncated, want)
				}
				keys := make([]string, len(res.Violations))
				for i, v := range res.Violations {
					keys[i] = violKey(t, v)
				}
				r := strings.Join(keys, "\n")
				if workers == 1 {
					report = r
					replayAll(t, sys, pin.inv, res.Violations)
				} else if r != report {
					t.Errorf("workers=%d: sorted violation report differs from workers=1", workers)
				}
			}
		})
	}
}

// replayAll replays every violation's trace and checks it reaches the
// invariant failure the violation reports.
func replayAll(t *testing.T, sys *System, inv Invariant, vs []Violation) {
	t.Helper()
	for _, v := range vs {
		if v.Kind != ViolationInvariant || v.Name != inv.Name {
			t.Fatalf("unexpected violation %s", v)
		}
		moves, trace := mustMoves(t, v), mustTrace(t, v)
		if len(moves) != v.Depth || len(trace) != len(moves) {
			t.Fatalf("trace of %d moves (%d rendered) at depth %d", len(moves), len(trace), v.Depth)
		}
		ms, _, err := Replay(sys, moves)
		if err != nil {
			t.Fatalf("trace %v does not replay: %v", trace, err)
		}
		if err := inv.evalMachines(ms); err == nil || err.Error() != v.Msg {
			t.Fatalf("trace %v replays to %v, reported %q", trace, err, v.Msg)
		}
	}
}
