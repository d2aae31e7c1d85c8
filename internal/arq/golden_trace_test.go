package arq

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

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// The E5 scenario grid: the exact-duration experiments of PR 2 (30
// payloads of 64 bytes, 2ms one-way delay, RTO 20ms) across loss rates
// and seeds, both ARQ variants. These runs pinned the heap event core's
// behaviour; the golden file pins it forever. Any change to the timer
// store that alters event ordering — even two same-instant events
// swapping places — changes a trace hash and fails TestGoldenTraces.
type goldenScenario struct {
	name    string
	variant string
	loss    float64
	seed    int64
}

func goldenScenarios() []goldenScenario {
	var out []goldenScenario
	for _, variant := range []string{"gbn", "sr"} {
		for _, loss := range []float64{0, 0.2, 0.5} {
			for seed := int64(0); seed < 3; seed++ {
				out = append(out, goldenScenario{
					name:    fmt.Sprintf("%s loss=%.2f seed=%d", variant, loss, seed),
					variant: variant,
					loss:    loss,
					seed:    seed,
				})
			}
		}
	}
	return out
}

// runGoldenScenario executes one E5 transfer with tracing enabled and
// returns the virtual duration, the number of processed events, and the
// FNV-64a hash of the rendered trace (one line per trace event, so the
// hash covers ordering, timestamps, kinds, endpoints and sizes).
func runGoldenScenario(t *testing.T, sc goldenScenario) (dur time.Duration, events uint64, traceHash uint64, trace []netsim.TraceEvent) {
	t.Helper()
	sim := netsim.New(sc.seed)
	sim.EnableTrace()
	sEP, err := sim.NewEndpoint("sender")
	if err != nil {
		t.Fatal(err)
	}
	rEP, err := sim.NewEndpoint("receiver")
	if err != nil {
		t.Fatal(err)
	}
	link := netsim.LinkParams{Delay: 2 * time.Millisecond, LossProb: sc.loss}
	sim.Connect(sEP, rEP, link)

	payloads := make([][]byte, 30)
	for i := range payloads {
		p := make([]byte, 64)
		for j := range p {
			p[j] = byte(i + j)
		}
		payloads[i] = p
	}
	cfg := FlowConfig{Window: 8, RTO: 20 * time.Millisecond, MaxRetries: 100}

	var (
		done   func() bool
		ferr   func() error
		result func() time.Duration
	)
	switch sc.variant {
	case "gbn":
		fl, err := StartGBN(sim, sEP, rEP, cfg, payloads)
		if err != nil {
			t.Fatal(err)
		}
		done, ferr = fl.Done, fl.Err
		result = func() time.Duration { return fl.Result().Duration }
	case "sr":
		fl, err := StartSR(sim, sEP, rEP, cfg, payloads)
		if err != nil {
			t.Fatal(err)
		}
		done, ferr = fl.Done, fl.Err
		result = func() time.Duration { return fl.Result().Duration }
	default:
		t.Fatalf("unknown variant %q", sc.variant)
	}
	if err := sim.RunUntilIdle(200000); err != nil {
		t.Fatal(err)
	}
	if err := ferr(); err != nil {
		t.Fatal(err)
	}
	if !done() {
		t.Fatal("transfer did not finish")
	}

	trace = sim.Trace()
	h := fnv.New64a()
	for _, ev := range trace {
		fmt.Fprintln(h, ev.String())
	}
	return result(), sim.Processed(), h.Sum64(), trace
}

func goldenLine(sc goldenScenario, dur time.Duration, events, hash uint64) string {
	return fmt.Sprintf("%s loss=%.2f seed=%d dur=%s events=%d trace=fnv64a:%016x",
		sc.variant, sc.loss, sc.seed, dur, events, hash)
}

// TestGoldenTraces re-runs the E5 grid and compares virtual durations,
// processed-event counts and full trace hashes against
// testdata/golden_traces.txt, recorded from the PR 2 indexed-heap event
// core. The simulator's current event core must reproduce every line
// byte-for-byte: same durations, same event counts, same global
// (deadline, arm-order) event ordering. Regenerate with `go test ./internal/arq -run GoldenTraces
// -update` — but a diff here is a determinism regression unless the
// event core's ordering contract deliberately changed.
func TestGoldenTraces(t *testing.T) {
	path := filepath.Join("testdata", "golden_traces.txt")
	var got []string
	for _, sc := range goldenScenarios() {
		dur, events, hash, _ := runGoldenScenario(t, sc)
		got = append(got, goldenLine(sc, dur, events, hash))
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d scenarios)", path, len(got))
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
			t.Errorf("scenario %d diverged from golden:\n  got:  %s\n  want: %s", i, got[i], want[i])
		}
	}
}

// TestGoldenTraceVerbatim keeps one full trace committed verbatim (the
// lossless GBN run) so a hash mismatch in TestGoldenTraces has a
// human-readable anchor to diff against.
func TestGoldenTraceVerbatim(t *testing.T) {
	path := filepath.Join("testdata", "golden_trace_gbn_loss0_seed0.txt")
	got := renderTrace(t, goldenScenario{variant: "gbn", loss: 0, seed: 0})
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Error("verbatim trace diverged from golden; diff the files for the first reordered event")
	}
}

// renderTrace runs one scenario and renders its trace one event a line,
// the format of the verbatim golden file.
func renderTrace(t *testing.T, sc goldenScenario) string {
	t.Helper()
	_, _, _, trace := runGoldenScenario(t, sc)
	var sb strings.Builder
	for _, ev := range trace {
		sb.WriteString(ev.String())
		sb.WriteString("\n")
	}
	return sb.String()
}
