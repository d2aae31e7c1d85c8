package harness

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"protodsl/internal/netsim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden result files")

// e11GoldenConfig is the seeded E11 multi-flow contention experiment:
// 32 concurrent flows over a shared bottleneck, 4 seeded shards. Its
// per-flow outcomes are a function of nothing but the event core's
// deterministic ordering — which makes it the end-to-end golden for the
// timer store (a binary heap, then a timing wheel, now a 4-ary heap).
func e11GoldenConfig(variant Variant) MultiFlowConfig {
	return MultiFlowConfig{
		Flows:           32,
		PayloadsPerFlow: 10,
		PayloadSize:     128,
		Variant:         variant,
		Window:          8,
		RTO:             30 * time.Millisecond,
		MaxRetries:      100,
		Bottleneck: netsim.LinkParams{
			Delay:     2 * time.Millisecond,
			LossProb:  0.1,
			Bandwidth: 2_000_000,
		},
		Seed: 42,
	}
}

// TestGoldenE11Results pins the seeded E11 runs against
// testdata/golden_e11.txt (recorded from the PR 2 heap event core):
// per-flow durations, packet and retransmit counts, hashed in shard/flow
// order. Identical hashes mean the current event core replays the
// recorded event ordering exactly across 4 shards × 32 contending flows. Regenerate
// with `go test ./internal/harness -run GoldenE11 -update`.
func TestGoldenE11Results(t *testing.T) {
	path := filepath.Join("testdata", "golden_e11.txt")
	var got []string
	for _, variant := range []Variant{VariantGBN, VariantSR} {
		rep, err := Run(e11GoldenConfig(variant), 4, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, r := range rep.Results {
			fmt.Fprintf(h, "%d/%d ok=%v dur=%s sent=%d retrans=%d\n",
				r.Shard, r.Flow, r.OK, r.Duration, r.PacketsSent, r.Retransmits)
		}
		got = append(got, fmt.Sprintf("%s flows=%d ok=%d sent=%d retrans=%d results=fnv64a:%016x",
			variant, rep.Flows, rep.OKFlows, rep.PacketsSent, rep.Retransmits, h.Sum64()))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to record): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d lines, run produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("E11 run diverged from golden:\n  got:  %s\n  want: %s", got[i], want[i])
		}
	}
}
