package verify

import (
	"fmt"
	"sort"
	"testing"
)

// diffConfig is one system + invariant configuration of the differential
// grid. Every entry is explored by the sequential reference engine and by
// the parallel engine at 1, 2, 4 and 8 workers; all results must agree.
type diffConfig struct {
	name string
	sys  *System
	inv  []Invariant
	opts Options // MaxStates/Workers filled per run
}

func diffGrid(t *testing.T) []diffConfig {
	t.Helper()
	var grid []diffConfig
	arq := func(o ARQOptions, deadlock bool) {
		sys, err := BuildARQ(o)
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, diffConfig{
			name: fmt.Sprintf("arq/n=%d/c=%d/lossy=%v/broken=%v", o.SeqSpace, o.Capacity, o.Lossy, o.BrokenAckGuard),
			sys:  sys,
			inv:  []Invariant{StopAndWaitInvariant(o.SeqSpace)},
			opts: Options{CheckDeadlock: deadlock},
		})
	}
	// The E4 grid plus lossy and seeded-bug variants.
	arq(ARQOptions{SeqSpace: 4, Capacity: 1}, true)
	arq(ARQOptions{SeqSpace: 4, Capacity: 2}, false)
	arq(ARQOptions{SeqSpace: 16, Capacity: 1}, false)
	arq(ARQOptions{SeqSpace: 16, Capacity: 2}, false)
	arq(ARQOptions{SeqSpace: 16, Capacity: 3}, false)
	arq(ARQOptions{SeqSpace: 64, Capacity: 1}, false)
	arq(ARQOptions{SeqSpace: 4, Capacity: 2, Lossy: true}, false)
	arq(ARQOptions{SeqSpace: 8, Capacity: 1, Lossy: true}, true)
	arq(ARQOptions{SeqSpace: 4, Capacity: 2, BrokenAckGuard: true}, false)

	gbn := func(o GBNOptions) {
		sys, err := BuildGBN(o)
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, diffConfig{
			name: fmt.Sprintf("gbn/n=%d/w=%d/t=%d/c=%d/lossy=%v/reorder=%v",
				o.SeqSpace, o.Window, o.Total, o.Capacity, o.Lossy, o.Reorder),
			sys: sys,
			inv: []Invariant{GBNInvariant(o.SeqSpace)},
		})
	}
	gbn(GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 1})
	gbn(GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 2, Lossy: true})
	gbn(GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 2, Lossy: true, Reorder: true})
	gbn(GBNOptions{SeqSpace: 8, Window: 3, Total: 4, Capacity: 2, Lossy: true, Reorder: true})
	gbn(GBNOptions{SeqSpace: 3, Window: 3, Total: 4, Capacity: 2, Lossy: true}) // seeded: n == W

	sr := func(o SROptions) {
		sys, err := BuildSR(o)
		if err != nil {
			t.Fatal(err)
		}
		w := o.Window
		if w == 0 {
			w = 2
		}
		grid = append(grid, diffConfig{
			name: fmt.Sprintf("sr/n=%d/w=%d/t=%d/c=%d/lossy=%v/reorder=%v",
				o.SeqSpace, w, o.Total, o.Capacity, o.Lossy, o.Reorder),
			sys: sys,
			inv: []Invariant{SRInvariantW(o.SeqSpace, w)},
		})
	}
	sr(SROptions{SeqSpace: 4, Total: 3, Capacity: 1})
	sr(SROptions{SeqSpace: 4, Total: 3, Capacity: 2, Lossy: true})
	sr(SROptions{SeqSpace: 3, Total: 3, Capacity: 2, Lossy: true})                // seeded: n < 2W
	sr(SROptions{SeqSpace: 4, Total: 3, Capacity: 2, Lossy: true, Reorder: true}) // stale dup lurks in reorder channel
	sr(SROptions{SeqSpace: 6, Window: 3, Total: 4, Capacity: 2, Lossy: true})
	sr(SROptions{SeqSpace: 5, Window: 3, Total: 4, Capacity: 2, Lossy: true}) // seeded: n < 2W at W=3

	hs := func(o HSOptions) {
		sys, err := BuildHandshake(o)
		if err != nil {
			t.Fatal(err)
		}
		grid = append(grid, diffConfig{
			name: fmt.Sprintf("hs/c=%d/lossy=%v/reorder=%v/reinc=%v/mutant=%d",
				o.Capacity, o.Lossy, o.Reorder, o.Reincarnate, o.Mutant),
			sys: sys,
			inv: []Invariant{HSInvariant()},
		})
	}
	hs(HSOptions{Capacity: 2, Lossy: true, Reorder: true})
	hs(HSOptions{Capacity: 2, Reorder: true, Reincarnate: true, Mutant: MutantNoTimeWait}) // seeded: stale FinAck aliases

	grid = append(grid, diffConfig{
		name: "handshake-deadlock",
		sys:  handshakeDeadlock(),
		opts: Options{CheckDeadlock: true},
	})
	return grid
}

// violKey projects a Violation onto its deterministic content: everything
// except the literal trace, whose parent chain may differ between equally
// short counter-examples. The trace length is always pinned; the final
// move is pinned only for step and overrun violations, where it is the
// offending move itself rather than a parent-chain artifact.
func violKey(t testing.TB, v Violation) string {
	t.Helper()
	moves := mustMoves(t, v)
	last := "-"
	if v.Kind == ViolationStep || v.Kind == ViolationOverrun {
		last = moves[len(moves)-1].String()
	}
	return fmt.Sprintf("%d|%s|%s|%s|len=%d|last=%s", v.Depth, v.Kind, v.Name, v.Msg, len(moves), last)
}

func sortedViolKeys(t testing.TB, vs []Violation) []string {
	t.Helper()
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = violKey(t, v)
	}
	sort.Strings(keys)
	return keys
}

func diffCompare(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if got.States != want.States {
		t.Errorf("%s: States = %d, want %d", name, got.States, want.States)
	}
	if got.Transitions != want.Transitions {
		t.Errorf("%s: Transitions = %d, want %d", name, got.Transitions, want.Transitions)
	}
	if got.Truncated != want.Truncated {
		t.Errorf("%s: Truncated = %v, want %v", name, got.Truncated, want.Truncated)
	}
	if got.Stats.Depth != want.Stats.Depth {
		t.Errorf("%s: Depth = %d, want %d", name, got.Stats.Depth, want.Stats.Depth)
	}
	if got.Stats.DupHits != want.Stats.DupHits {
		t.Errorf("%s: DupHits = %d, want %d", name, got.Stats.DupHits, want.Stats.DupHits)
	}
	if fmt.Sprint(got.Overruns) != fmt.Sprint(want.Overruns) {
		t.Errorf("%s: Overruns = %v, want %v", name, got.Overruns, want.Overruns)
	}
	wk, gk := sortedViolKeys(t, want.Violations), sortedViolKeys(t, got.Violations)
	if len(wk) != len(gk) {
		t.Fatalf("%s: %d violations, want %d\n got: %v\nwant: %v", name, len(gk), len(wk), gk, wk)
	}
	for i := range wk {
		if gk[i] != wk[i] {
			t.Errorf("%s: violation[%d] = %s, want %s", name, i, gk[i], wk[i])
		}
	}
}

// TestDifferentialParallelVsSequential pins the parallel engine against
// the sequential reference over the full grid: identical state counts,
// transition counts, dedup counts, depths, overrun counts and violation
// multisets (message, kind, depth and trace length) at every worker count.
func TestDifferentialParallelVsSequential(t *testing.T) {
	for _, cfg := range diffGrid(t) {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			opts := cfg.opts
			opts.MaxStates = 1 << 21
			opts.Invariants = cfg.inv
			want, err := ExploreSequential(cfg.sys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want.Truncated {
				t.Fatalf("grid config unexpectedly truncated at %d states", want.States)
			}
			for _, workers := range []int{1, 2, 4, 8} {
				opts.Workers = workers
				got, err := Explore(cfg.sys, opts)
				if err != nil {
					t.Fatal(err)
				}
				diffCompare(t, fmt.Sprintf("workers=%d", workers), want, got)
				if got.Stats.Workers != workers {
					t.Errorf("Stats.Workers = %d, want %d", got.Stats.Workers, workers)
				}
			}
		})
	}
}

// TestDifferentialParallelIsSelfDeterministic pins the parallel engine
// against itself: repeated runs at the same and different worker counts
// must produce byte-identical violation reports, not just equal multisets
// — the sort in sortViolations is total.
func TestDifferentialParallelIsSelfDeterministic(t *testing.T) {
	sys, err := BuildSR(SROptions{SeqSpace: 3, Total: 3, Capacity: 2, Lossy: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MaxStates: 1 << 20, Invariants: []Invariant{SRInvariant(3)}}
	var ref []string
	for run := 0; run < 6; run++ {
		opts.Workers = []int{1, 2, 4, 8, 3, 2}[run]
		res, err := Explore(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(res.Violations))
		for i, v := range res.Violations {
			keys[i] = violKey(t, v)
		}
		if run == 0 {
			ref = keys
			if len(ref) == 0 {
				t.Fatal("seeded SR config produced no violations")
			}
			continue
		}
		if len(keys) != len(ref) {
			t.Fatalf("run %d: %d violations, want %d", run, len(keys), len(ref))
		}
		for i := range keys {
			if keys[i] != ref[i] {
				t.Errorf("run %d: violation[%d] = %s, want %s (order must be deterministic)", run, i, keys[i], ref[i])
			}
		}
	}
}

// TestDifferentialTruncationAgrees pins the bounded-memory mode: when the
// table fills, both engines report Truncated with exactly MaxStates states.
func TestDifferentialTruncationAgrees(t *testing.T) {
	sys, err := BuildARQ(ARQOptions{SeqSpace: 16, Capacity: 2, Lossy: true})
	if err != nil {
		t.Fatal(err)
	}
	// The full space is 640 states; the bound must land strictly inside it.
	const max = 300
	for _, workers := range []int{1, 4} {
		res, err := Explore(sys, Options{MaxStates: max, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			t.Fatalf("workers=%d: not truncated", workers)
		}
		if res.States != max {
			t.Errorf("workers=%d: truncated run has %d states, want exactly %d", workers, res.States, max)
		}
	}
	seq, err := ExploreSequential(sys, Options{MaxStates: max})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Truncated || seq.States != max {
		t.Errorf("sequential: truncated=%v states=%d, want truncated with %d", seq.Truncated, seq.States, max)
	}
}
