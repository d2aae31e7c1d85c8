package main

import (
	"maps"
	"regexp"
	"slices"
	"testing"

	"protodsl/internal/verify"
)

// The smoke test runs inside tier-1: every workload at -scale smoke
// (tiny sizes, one round), untraced and traced, with no timing
// assertions. It checks that outputs verify, that the emitted names are
// exactly the declared sets, that BENCHMARK.json and the code agree, and
// that each correctness check fails when its input is tampered with.

func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv(7, true)
	if err != nil {
		t.Fatal(err)
	}
	e.out = t.TempDir() // traces and state logs: not into the source tree
	return e
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	slices.Sort(out)
	return out
}

func keys(m map[string]metric) []string { return slices.Sorted(maps.Keys(m)) }

func TestSmokeEveryWorkload(t *testing.T) {
	e := smokeEnv(t)
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			rec, err := runWorkload(def, e, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Ops == 0 || rec.FailedOps != 0 {
				t.Fatalf("untraced: ops=%d failed_ops=%d %v", rec.Ops, rec.FailedOps, rec.Failures)
			}
			if got, want := keys(rec.Metrics), names(endToEnd); !slices.Equal(got, want) {
				t.Fatalf("untraced run emitted %v, declared %v", got, want)
			}
			for name, m := range rec.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v: must never be zero", name, m.Value)
				}
			}

			rec, err = runWorkload(def, e, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Ops == 0 || rec.FailedOps != 0 {
				t.Fatalf("traced: ops=%d failed_ops=%d %v", rec.Ops, rec.FailedOps, rec.Failures)
			}
			if got, want := keys(rec.Metrics), names(perLayer); !slices.Equal(got, want) {
				t.Fatalf("traced run emitted %v, declared %v", got, want)
			}
			var sum float64
			for _, r := range rec.layerRows {
				sum += r.nsPerItem
			}
			if d := sum - rec.tracedCPU; d > 1e-6*rec.tracedCPU || d < -1e-6*rec.tracedCPU {
				t.Errorf("layer rows sum to %v ns/item, traced cpu_ns_per_item is %v", sum, rec.tracedCPU)
			}
			if def.name == "bulk64_gbn" || def.name == "small8_sr" || def.name == "churn_session" {
				// The senders take their stats block from obs.Of(runtime):
				// RTT samples in the node's histogram prove the tracing
				// wrappers forwarded ObsShard().
				for _, name := range []string{"rtnet.frames_in", "rtnet.frames_out", "arq.rtt_p50_us", "rtnet.stage_ns", "arq.recv_self_ns"} {
					if rec.Metrics[name].Value <= 0 {
						t.Errorf("traced %s = %v, want > 0", name, rec.Metrics[name].Value)
					}
				}
			}
		})
	}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	decl, err := loadBenchmarkJSON(smokeEnv(t).root)
	if err != nil {
		t.Fatal(err)
	}
	legal := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
		if !legal.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: illegal name or why over 200 characters (%d)", w.name, len(w.why))
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !legal.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: name %q illegal or used twice", kind, d.name)
			}
			seen[d.name] = true
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: better = %q", kind, g.Name, g.Better)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}

// TestTamperedOutputsFail: one flipped delivered byte, one dropped flow
// and one inverted expected verdict each turn failed_ops non-zero.
func TestTamperedOutputsFail(t *testing.T) {
	e := smokeEnv(t)
	w := &transferWL{variant: "gbn", flows: 4, window: 8, perFlow: 20, size: 64}
	if err := w.setup(e); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	flows, _, err := w.transfer(e, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := func(id int) [][]byte { return w.payloads[id] }
	score := func(fs []flowOutcome) roundStat {
		var rs roundStat
		scoreFlows(&rs, fs, want)
		return rs
	}
	if rs := score(flows); rs.failed != 0 || rs.ops != 4 {
		t.Fatalf("untampered round: ops=%d failed=%d %v", rs.ops, rs.failed, rs.failures)
	}

	flipped := append([]flowOutcome(nil), flows...)
	flipped[2].delivered = append([][]byte(nil), flows[2].delivered...)
	flipped[2].delivered[5] = append([]byte(nil), flows[2].delivered[5]...)
	flipped[2].delivered[5][17] ^= 0x01
	if rs := score(flipped); rs.failed != 1 {
		t.Errorf("one flipped delivered byte: failed=%d, want 1", rs.failed)
	}

	dropped := append([]flowOutcome(nil), flows...)
	dropped[1] = flowOutcome{}
	if rs := score(dropped); rs.failed != 1 {
		t.Errorf("one dropped flow: failed=%d, want 1", rs.failed)
	}

	sys, err := verify.BuildGBN(verify.GBNOptions{SeqSpace: 3, Window: 3, Total: 4, Capacity: 2, Lossy: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Explore(sys, verify.Options{Invariants: []verify.Invariant{verify.GBNInvariant(3)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkVerdict(true, res); err != nil {
		t.Errorf("seeded bug with the right expectation: %v", err)
	}
	if err := checkVerdict(false, res); err == nil {
		t.Error("inverted expected verdict was accepted")
	}
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name     string
		old, new []float64
		lower    bool
		want     string
	}{
		{"same", steady, steady, true, "ok"},
		{"slower latency", steady, []float64{120, 121, 119, 120, 122}, true, "regressed"},
		{"faster latency", steady, []float64{80, 81, 79, 80, 82}, true, "ok"},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 82}, false, "regressed"},
		{"too noisy to call", steady, []float64{60, 140, 100, 90, 120}, true, "unresolved"},
		{"noisy but every run better", []float64{100, 140, 120, 110, 130}, []float64{50, 60, 55, 52, 58}, true, "ok"},
	} {
		if _, got := verdict(c.old, c.new, c.lower, 0.10, true); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if _, got := verdict(steady, []float64{60, 140, 100, 90, 120}, true, 0.10, false); got != "ok" {
		t.Errorf("median-only comparison of a noisy sample: verdict %q, want ok", got)
	}
	// The quartiles are Python's statistics.quantiles(n=4) (exclusive).
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two values = %v, %v, want 0.75, 2.25", q1, q3)
	}
}
