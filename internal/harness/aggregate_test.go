package harness

import (
	"testing"
	"time"
)

// fakeResults builds a deterministic sharded result set for aggregation
// tests: 4 shards × 32 flows of varying durations and counters.
func fakeResults() [][]FlowResult {
	perShard := make([][]FlowResult, 4)
	for s := range perShard {
		rs := make([]FlowResult, 32)
		for f := range rs {
			rs[f] = FlowResult{
				Shard:       s,
				Flow:        f,
				OK:          (s+f)%7 != 0,
				Duration:    time.Duration(10+s*3+f) * time.Millisecond,
				Bytes:       1280 + 64*f,
				PacketsSent: 12 + f,
				Retransmits: (s * f) % 5,
			}
		}
		perShard[s] = rs
	}
	return perShard
}

// TestAggregateIntoMatchesAggregate pins the refactor: the reusing
// variant must produce the same report as the allocating one.
func TestAggregateIntoMatchesAggregate(t *testing.T) {
	perShard := fakeResults()
	want := Aggregate(perShard)
	var rep Report
	AggregateInto(&rep, perShard)
	// Run twice to prove reuse does not leak previous contents.
	AggregateInto(&rep, perShard)

	if rep.Flows != want.Flows || rep.OKFlows != want.OKFlows ||
		rep.PacketsSent != want.PacketsSent || rep.Retransmits != want.Retransmits {
		t.Fatalf("counter mismatch: got %+v want %+v", rep, *want)
	}
	if rep.Duration != want.Duration || rep.Goodput != want.Goodput || rep.Fairness != want.Fairness {
		t.Fatalf("summary mismatch: got %+v want %+v", rep, *want)
	}
	if len(rep.Results) != len(want.Results) {
		t.Fatalf("results length %d, want %d", len(rep.Results), len(want.Results))
	}
	for i := range rep.Results {
		if rep.Results[i] != want.Results[i] {
			t.Fatalf("result %d mismatch: got %+v want %+v", i, rep.Results[i], want.Results[i])
		}
	}
}

// TestAggregateIntoAllocs pins the satellite fix: the per-flow metrics
// merge must not allocate per sample — a warm Report re-aggregates at
// zero allocations (the first pass sizes the slices exactly from the
// shard counts; steady state reuses them).
func TestAggregateIntoAllocs(t *testing.T) {
	perShard := fakeResults()
	var rep Report
	AggregateInto(&rep, perShard) // warm the buffers
	allocs := testing.AllocsPerRun(100, func() {
		AggregateInto(&rep, perShard)
	})
	if allocs != 0 {
		t.Errorf("warm AggregateInto allocates %.1f objects per run, want 0", allocs)
	}
	// Cold Aggregate must allocate only the report and its two exact-
	// capacity buffers, not per sample (128 samples would show here).
	allocs = testing.AllocsPerRun(100, func() {
		_ = Aggregate(perShard)
	})
	if allocs > 4 {
		t.Errorf("cold Aggregate allocates %.1f objects per run, want <= 4 (per-sample growth back?)", allocs)
	}
}

// BenchmarkAggregateInto is the allocation gate's view of the merge: it
// must report 0 allocs/op (enforced by `make allocscheck` alongside the
// slot codec and the rtnet loops).
func BenchmarkAggregateInto(b *testing.B) {
	perShard := fakeResults()
	var rep Report
	AggregateInto(&rep, perShard)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AggregateInto(&rep, perShard)
	}
}
