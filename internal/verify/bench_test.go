package verify

import (
	"fmt"
	"testing"
)

// BenchmarkVerifyStates measures the parallel checker's state throughput
// on a fixed Go-Back-N configuration (1,548 states and 11,653
// transitions over lossy reordering channels) across worker counts. On a single-core machine the
// workers>1 cases measure coordination overhead, not speedup — benchdiff
// skips cross-machine comparison for worker counts above the core count,
// and BENCH_hotpath.json records num_cpu alongside the numbers.
func BenchmarkVerifyStates(b *testing.B) {
	sys, err := BuildGBN(GBNOptions{SeqSpace: 8, Window: 3, Total: 4, Capacity: 2, Lossy: true, Reorder: true})
	if err != nil {
		b.Fatal(err)
	}
	inv := []Invariant{GBNInvariant(8)}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var states, elapsedNs int64
			for i := 0; i < b.N; i++ {
				res, err := Explore(sys, Options{
					MaxStates:  1 << 20,
					Invariants: inv,
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("unexpected violations: %d", len(res.Violations))
				}
				states += int64(res.States)
				elapsedNs += res.Stats.Elapsed.Nanoseconds()
			}
			if elapsedNs > 0 {
				b.ReportMetric(float64(states)/(float64(elapsedNs)/1e9), "states/s")
			}
		})
	}
}

// BenchmarkVerifyStatesSequential is the reference engine on the same
// configuration, for the §12 comparison table.
func BenchmarkVerifyStatesSequential(b *testing.B) {
	sys, err := BuildGBN(GBNOptions{SeqSpace: 8, Window: 3, Total: 4, Capacity: 2, Lossy: true, Reorder: true})
	if err != nil {
		b.Fatal(err)
	}
	inv := []Invariant{GBNInvariant(8)}
	var states, elapsedNs int64
	for i := 0; i < b.N; i++ {
		res, err := ExploreSequential(sys, Options{MaxStates: 1 << 20, Invariants: inv})
		if err != nil {
			b.Fatal(err)
		}
		states += int64(res.States)
		elapsedNs += res.Stats.Elapsed.Nanoseconds()
	}
	if elapsedNs > 0 {
		b.ReportMetric(float64(states)/(float64(elapsedNs)/1e9), "states/s")
	}
}
