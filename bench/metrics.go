package main

import (
	"fmt"
	"sort"

	"protodsl/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names and units plus direction and bound; the smoke test fails when
// the two drift apart.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, in the words of
// README.md: an item is a verified payload packet (an explored state on
// verify_grid), an op is a flow / session / transfer / sweep / pass.
// Every workload reports every one of them, and none can be zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"cpu_ns_per_item", "ns"},
	{"op_p50_ms", "ms"},
	{"useful_work_ratio", "ratio"},
	{"peak_rss_MB", "MB"},
}

// perLayer is the traced run's output: counts from Node.Obs() /
// Result.Stats / netsim.Stats, *iso* timings (iso.go), *span* timings
// (trace.go) and the un-gated views of the end-to-end figures. A metric
// a workload has no source for reads 0 there.
var perLayer = []metricDef{
	{"e2e.goodput_MBps", "MB/s"},
	{"e2e.jain_fairness", "ratio"},
	{"e2e.op_p95_ms", "ms"},
	{"e2e.op_p99_ms", "ms"},
	{"e2e.ops_per_s", "1/s"},

	{"rtnet.frames_in", "count"},
	{"rtnet.frames_out", "count"},
	{"rtnet.sheds", "count"},
	{"rtnet.shed_ratio", "ratio"},
	{"rtnet.drops", "count"},
	{"rtnet.gso_segs_per_burst", "ratio"},
	{"rtnet.gro_segs_per_bundle", "ratio"},
	{"rtnet.stage_ns", "ns"},

	{"arq.retransmits", "count"},
	{"arq.timeouts", "count"},
	{"arq.retransmit_ratio", "ratio"},
	{"arq.recv_self_ns", "ns"},
	{"arq.send_self_ns", "ns"},
	{"arq.new_engine_us", "us"},
	{"arq.encode_pkt_ns", "ns"},
	{"arq.decode_pkt_ns", "ns"},
	{"arq.encode_ack_ns", "ns"},
	{"arq.decode_ack_ns", "ns"},
	{"arq.rtt_p50_us", "us"},
	{"arq.rtt_p99_us", "us"},

	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"fsm.step_ns", "ns"},
	{"checksum.sum8_ns", "ns"},
	{"gen.encode_pkt_ns", "ns"},
	{"gen.decode_pkt_ns", "ns"},
	{"gen.step_ns", "ns"},

	{"timer.arms_per_pkt", "ratio"},
	{"timer.arm_ns", "ns"},
	{"timer.cancel_ns", "ns"},
	{"obs.inc_ns", "ns"},
	{"obs.observe_ns", "ns"},

	{"session.handshake_us_p50", "us"},
	{"session.handshakes_ok", "count"},
	{"session.drop_no_session", "count"},
	{"session.stall_share", "ratio"},
	{"session.client_self_us", "us"},
	{"session.gate_data_ns", "ns"},
	{"session.snapshot_append_ns", "ns"},
	{"session.snapshot_bytes_per_session", "count"},

	{"netsim.events_per_s", "1/s"},
	{"netsim.events_per_pkt", "ratio"},
	{"netsim.link_drops", "count"},
	{"netsim.send_ns", "ns"},
	{"dsl.compile_ms", "ms"},

	{"verify.states", "count"},
	{"verify.transitions", "count"},
	{"verify.dup_ratio", "ratio"},
	{"verify.arena_MB", "MB"},
	{"verify.frontier_peak", "count"},
	{"verify.build_ms", "ms"},
	{"verify.small_targets_s", "s"},
	{"verify.verdict_s", "s"},
	{"verify.states_per_s", "1/s"},

	{"proc.untraced_cpu_ns_per_item", "ns"},
	{"proc.allocs_per_item", "ratio"},
	{"proc.gc_cycles_per_round", "count"},
	{"proc.gc_pause_ms_per_round", "ms"},
	{"proc.trace_overhead_pct", "%"},
	{"proc.setup_first_s", "s"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns name->value into the reported map, in the declared set and
// with the declared units; a declared metric with no value reads 0.
func fill(defs []metricDef, vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic("bench: value for undeclared metric " + name)
		}
	}
	return out
}

// endToEndValues computes the gated metrics from a measured segment.
func endToEndValues(s *summary, setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":           setupS,
		"items_per_s":       s.itemsPerS,
		"cpu_ns_per_item":   s.cpuNsItem,
		"op_p50_ms":         percentile(s.opMs, 50),
		"useful_work_ratio": ratio(float64(s.items), float64(s.attempts)),
		"peak_rss_MB":       peakRSSMB(),
	}
}

// histPercentileUs reads a percentile off the log2 RTT histogram: the
// upper edge of the bucket holding it, in microseconds.
func histPercentileUs(b *[obs.HistBuckets]uint64, p float64) float64 {
	var total uint64
	for _, n := range b {
		total += n
	}
	if total == 0 {
		return 0
	}
	want := uint64(p / 100 * float64(total))
	var cum uint64
	for i, n := range b {
		cum += n
		if cum > want || i == len(b)-1 {
			return float64(uint64(1)<<uint(i)) / 1e3
		}
	}
	return 0
}

// layerRow is one line of the printed per-layer budget.
type layerRow struct {
	layer            string
	count            float64
	nsPerItem, share float64
}

// layerTable turns span costs into the budget: self ns per delivered
// item and share of the traced run's cpu_ns_per_item, with whatever the
// spans do not cover stated as the untraced remainder, so the rows sum
// to the traced cpu_ns_per_item exactly.
func layerTable(costs []layerCost, items int, cpuNsPerItem float64) (rows []layerRow, untraced float64) {
	untraced = cpuNsPerItem
	for _, c := range costs {
		per := ratio(c.selfNs, float64(items))
		rows = append(rows, layerRow{c.layer, c.count, per, ratio(per, cpuNsPerItem)})
		untraced -= per
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].nsPerItem > rows[j].nsPerItem })
	rows = append(rows, layerRow{"(untraced remainder)", 0, untraced, ratio(untraced, cpuNsPerItem)})
	return rows, untraced
}

func printLayerTable(rows []layerRow, cpuNsPerItem float64) {
	fmt.Printf("  %-26s %12s %14s %7s\n", "layer", "calls", "self ns/item", "share")
	for _, r := range rows {
		fmt.Printf("  %-26s %12.0f %14.1f %6.1f%%\n", r.layer, r.count, r.nsPerItem, 100*r.share)
	}
	fmt.Printf("  %-26s %12s %14.1f %6.1f%%\n", "traced cpu_ns_per_item", "", cpuNsPerItem, 100.0)
}
