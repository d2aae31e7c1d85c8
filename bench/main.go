// Command bench is the repository's end-to-end ruler: six named
// workloads over the three surfaces users touch (the real-socket
// runtime, the simulator, the verifier), the end-to-end metrics declared
// in BENCHMARK.json, and a per-layer budget from a traced run. It
// drives the stack only through the API cmd/protoserve, cmd/protosim
// and cmd/protoverify use, verifies every output, and claims nothing:
// see README.md in this directory.
//
//	go run ./bench -workload small8_sr -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload all -runs 3 -json bench/out/a.json
//	go run ./bench -compare bench/out/a.json bench/out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// host is stamped on every record: no ratio is claimed that the host
// cannot measure.
type host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"git_commit"`
	Network    string `json:"network"` // always "loopback": client and server share this process and host
	// What the real-socket workloads found (zero on the others).
	Shards  int  `json:"shards"`
	Sockets int  `json:"sockets"`
	GSO     bool `json:"gso"`
	GRO     bool `json:"gro"`
}

func hostFacts(e *env) host {
	h := host{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Network: "loopback", Commit: "unknown",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	h.Shards, h.Sockets, h.GSO, h.GRO = e.shards, e.sockets, e.gso, e.gro
	return h
}

// record is one run of one workload, as -json writes it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Scale     string            `json:"scale"`
	Host      host              `json:"host"`
	Rounds    int               `json:"rounds"`
	OpSamples int               `json:"op_samples"`
	SetupReps []float64         `json:"setup_reps_s"`
	Ops       int               `json:"ops"`
	FailedOps int               `json:"failed_ops"`
	Failures  []string          `json:"failures,omitempty"`
	SampleN   uint64            `json:"trace_sample_1_in,omitempty"`
	Spans     int               `json:"trace_spans,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Claim     *string           `json:"claim"` // always null: the ruler claims no gain
	layerRows []layerRow
	tracedCPU float64
}

// result is the line the driver reads: the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// repoRoot walks up from the working directory to the directory holding
// go.mod: the driver runs from the root, go test from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

func newEnv(seed int64, smoke bool) (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return &env{seed: seed, smoke: smoke, root: root, out: filepath.Join(root, "bench", "out")}, nil
}

// runWorkload measures one workload: repeated set-up, then either the
// untraced segment (end-to-end metrics) or the traced one (per-layer
// metrics).
func runWorkload(def workloadDef, e *env, seconds float64, traced bool) (*record, error) {
	w := def.make()
	setups, err := timedSetup(e, w)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	rec := &record{Workload: def.name, Seed: e.seed, Seconds: seconds, Traced: traced,
		Scale: map[bool]string{false: "full", true: "smoke"}[e.smoke], SetupReps: setups}
	budget := time.Duration(seconds * float64(time.Second))

	if !traced {
		rounds, err := segment(e, w, budget, 0, nil)
		if err != nil {
			return nil, err
		}
		s := summarise(rounds)
		rec.note(&s)
		rec.Metrics = fill(endToEnd, endToEndValues(&s, median(setups)))
		rec.Host = hostFacts(e)
		return rec, nil
	}

	// Traced run: untraced reference rounds before and after the traced
	// ones (tracing overhead is the difference; allocation and GC figures
	// come from the reference, which the wrappers' own garbage cannot
	// inflate), then the isolated timings.
	var mem memUse
	var ref []roundStat
	next := 0 // round index, running across the three stretches
	reference := func() error {
		return mem.measure(func() error {
			rounds, err := segment(e, w, budget/8, next, nil)
			ref = append(ref, rounds...)
			next += len(rounds)
			return err
		})
	}
	if err := reference(); err != nil {
		return nil, err
	}
	// The workload's sampling rate is sized so that its span buffers last
	// a ten-second run; longer runs sample proportionally less. Should a
	// buffer fill all the same, sampling stops there and roots/sampled
	// still scales the result.
	sampleN := w.sampleN() * uint64(max(1, math.Round(seconds/10)))
	if e.smoke {
		sampleN = 1 // a smoke round is a few hundred packets: record them all
	}
	tr := newTracer(sampleN)
	trounds, err := segment(e, w, budget/2, next, tr)
	if err != nil {
		return nil, err
	}
	next += len(trounds)
	if err := reference(); err != nil {
		return nil, err
	}
	rs, ts := summarise(ref), summarise(trounds)
	rec.note(&rs)
	rec.note(&ts)
	iso, err := isoTimings(e, w.payloadSize())
	if err != nil {
		return nil, fmt.Errorf("isolated timings: %w", err)
	}
	vals, rows := perLayerValues(&rs, &ts, tr, iso, mem, setups[0])
	rec.layerRows, rec.tracedCPU = rows, ts.cpuNsItem
	rec.Metrics = fill(perLayer, vals)
	rec.SampleN, rec.Spans = tr.sampleN, tr.recorded()
	rec.TraceFile = filepath.Join(e.out, "trace-"+def.name+".json")
	if err := tr.write(rec.TraceFile, def.name); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	rec.Host = hostFacts(e)
	return rec, nil
}

// memUse accumulates allocation and GC activity over measured stretches.
type memUse struct {
	mallocs, pauseNs uint64
	gcCycles         uint32
}

func (m *memUse) measure(fn func() error) error {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := fn()
	runtime.ReadMemStats(&b)
	m.mallocs += b.Mallocs - a.Mallocs
	m.pauseNs += b.PauseTotalNs - a.PauseTotalNs
	m.gcCycles += b.NumGC - a.NumGC
	return err
}

// note accumulates a segment's op accounting on the record.
func (r *record) note(s *summary) {
	r.Rounds += s.rounds
	r.OpSamples += len(s.opMs)
	r.Ops += s.ops
	r.FailedOps += s.failed
	r.Failures = append(r.Failures, s.failures...)
}

// perLayerValues assembles every per-layer metric from the untraced
// reference rounds (ref, with their allocation and GC activity mem), the
// traced rounds (ts), the spans and the isolated timings. Counts are
// means per traced round, so runs of different length compare.
func perLayerValues(ref, ts *summary, tr *tracer, iso map[string]float64, mem memUse, setupFirst float64) (map[string]float64, []layerRow) {
	v := map[string]float64{}
	for k, x := range iso {
		v[k] = x
	}
	c := &ts.counts
	rounds, items := float64(ts.rounds), float64(ts.items)
	perRound := func(n uint64) float64 { return ratio(float64(n), rounds) }

	v["e2e.goodput_MBps"] = ts.goodputMBps
	v["e2e.jain_fairness"] = ts.jain
	v["e2e.op_p95_ms"] = percentile(ts.opMs, 95)
	v["e2e.op_p99_ms"] = percentile(ts.opMs, 99)
	v["e2e.ops_per_s"] = ts.opsPerS

	v["rtnet.frames_in"] = perRound(c.n[cFramesIn])
	v["rtnet.frames_out"] = perRound(c.n[cFramesOut])
	v["rtnet.sheds"] = perRound(c.n[cSheds])
	v["rtnet.shed_ratio"] = ratio(float64(c.n[cSheds]), float64(c.n[cFramesIn]+c.n[cSheds]))
	v["rtnet.drops"] = perRound(c.n[cDrops])
	v["rtnet.gso_segs_per_burst"] = ratio(float64(c.n[cGsoSegs]), float64(c.n[cGsoBursts]))
	v["rtnet.gro_segs_per_bundle"] = ratio(float64(c.n[cGroSegs]), float64(c.n[cGroBundles]))

	v["arq.retransmits"] = perRound(c.n[cRetransmits])
	v["arq.timeouts"] = perRound(c.n[cTimeouts])
	if ts.payloadBytes > 0 {
		v["arq.retransmit_ratio"] = 1 - ratio(float64(ts.items), float64(ts.attempts))
	}
	v["arq.rtt_p50_us"] = histPercentileUs(&c.rtt, 50)
	v["arq.rtt_p99_us"] = histPercentileUs(&c.rtt, 99)

	v["session.handshakes_ok"] = perRound(c.n[cHandshakesOK])
	v["session.drop_no_session"] = perRound(c.n[cDropNoSession])
	if c.n[cHandshakesOK] > 0 {
		v["session.stall_share"] = ratio(float64(c.n[cStalled]), float64(ts.ops))
		v["session.snapshot_bytes_per_session"] = ratio(float64(c.n[cStateLogBytes]), float64(ts.ops))
	}
	v["session.handshake_us_p50"] = median(tr.waits(spHandshake)) / 1e3

	v["netsim.events_per_s"] = ratio(float64(c.n[cSimEvents]), ts.wall.Seconds())
	v["netsim.events_per_pkt"] = ratio(float64(c.n[cSimEvents]), items)
	v["netsim.link_drops"] = perRound(c.n[cLinkDrops])

	if c.n[cStates] > 0 {
		v["verify.states"] = perRound(c.n[cStates])
		v["verify.transitions"] = perRound(c.n[cTransitions])
		v["verify.dup_ratio"] = ratio(float64(c.n[cDupHits]), float64(c.n[cStates]))
		v["verify.arena_MB"] = float64(c.n[cArenaBytes]) / 1e6
		v["verify.frontier_peak"] = float64(c.n[cFrontierPeak])
		v["verify.build_ms"] = perRound(c.n[cBuildNs]) / 1e6
		v["verify.small_targets_s"] = perRound(c.n[cSmallTargetsNs]) / 1e9
		v["verify.verdict_s"] = percentile(ts.opMs, 50) / 1e3
		v["verify.states_per_s"] = ratio(float64(c.n[cBigState]), float64(c.n[cBigNs])/1e9)
	}

	v["proc.allocs_per_item"] = ratio(float64(mem.mallocs), float64(ref.items))
	v["proc.gc_cycles_per_round"] = ratio(float64(mem.gcCycles), float64(ref.rounds))
	v["proc.gc_pause_ms_per_round"] = ratio(float64(mem.pauseNs)/1e6, float64(ref.rounds))
	v["proc.trace_overhead_pct"] = 100 * ratio(ref.itemsPerS-ts.itemsPerS, ref.itemsPerS)
	v["proc.setup_first_s"] = setupFirst

	// Span-derived: per-call self times, then the budget table.
	costs := tr.budget()
	var arms uint64
	for _, b := range tr.bufs {
		arms += b.arms
	}
	if c.n[cMachineSteps] > 0 {
		// sim_stopwait: arq.RunTransfer builds its own Sim and endpoints,
		// so there is nothing to wrap; the budget is isolated timing x the
		// transfer's own call counts (fsm.step_ns covers two steps).
		costs = []layerCost{
			{"fsm.step (iso x calls)", float64(c.n[cMachineSteps]), float64(c.n[cMachineSteps]) * iso["fsm.step_ns"] / 2},
			{"wire.encode (iso x calls)", float64(c.n[cPktEncodes] + c.n[cAckEncodes]),
				float64(c.n[cPktEncodes])*iso["wire.encode_ns"] + float64(c.n[cAckEncodes])*iso["arq.encode_ack_ns"]},
			{"wire.decode (iso x calls)", float64(c.n[cPktDecodes] + c.n[cAckDecodes]),
				float64(c.n[cPktDecodes])*iso["wire.decode_ns"] + float64(c.n[cAckDecodes])*iso["arq.decode_ack_ns"]},
		}
		arms = c.n[cTimerArms]
	}
	perCall := map[string]float64{}
	for _, lc := range costs {
		perCall[lc.layer] = ratio(lc.selfNs, lc.count)
	}
	v["rtnet.stage_ns"] = perCall["rtnet.stage"]
	v["arq.recv_self_ns"] = perCall["arq.recv"]
	v["arq.send_self_ns"] = perCall["arq.send"]
	v["arq.new_engine_us"] = perCall["arq.new_engine"] / 1e3
	v["timer.arm_ns"] = perCall["timer.arm"]
	v["timer.cancel_ns"] = perCall["timer.cancel"]
	v["timer.arms_per_pkt"] = ratio(float64(arms), items)
	v["netsim.send_ns"] = perCall["netsim.send"]
	for _, lc := range costs {
		if lc.layer == "session" {
			v["session.client_self_us"] = ratio(lc.selfNs, float64(ts.ops)) / 1e3
		}
	}
	rows, untraced := layerTable(costs, ts.items, ts.cpuNsItem)
	v["proc.untraced_cpu_ns_per_item"] = untraced
	return v, rows
}

// print writes every metric by name with its unit, the op accounting
// and, for a traced run, the per-layer budget.
func (r *record) print() {
	mode := "untraced: end-to-end metrics"
	if r.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("workload %s  seed %d  %s  scale %s\n", r.Workload, r.Seed, mode, r.Scale)
	h := r.Host
	fmt.Printf("host: num_cpu=%d GOMAXPROCS=%d %s kernel=%s commit=%s network=%s (client and server nodes in one process, not a link)\n",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Commit, h.Network)
	if h.Shards > 0 {
		fmt.Printf("rtnet: shards=%d sockets=%d gso=%v gro=%v (zero rtnet.Config on both nodes)\n", h.Shards, h.Sockets, h.GSO, h.GRO)
	}
	fmt.Printf("rounds=%d op_samples=%d setup_reps_s=%.3f ops=%d failed_ops=%d\n", r.Rounds, r.OpSamples, r.SetupReps, r.Ops, r.FailedOps)
	for _, f := range r.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%-36s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	if r.Traced && r.layerRows != nil {
		fmt.Printf("per-layer budget (%d spans, roots sampled 1 in %d, trace in %s):\n", r.Spans, r.SampleN, r.TraceFile)
		printLayerTable(r.layerRows, r.tracedCPU)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runFile is what -workload all writes and -compare reads.
type runFile struct {
	Runs []*record `json:"runs"`
}

// runAll re-executes this binary once per (workload, run), so peak RSS
// and GC state never leak from one workload into the next, and collects
// the children's records. Each workload gets runs untraced runs on
// seeds seed, seed+1, ... and one traced run.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	e, err := newEnv(o.seed, o.scale == "smoke")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	var all runFile
	failed := 0
	for _, def := range workloads {
		for r := 0; r <= o.runs; r++ {
			trace := "0"
			s := o.seed + int64(r)
			if r == o.runs {
				trace, s = "1", o.seed
			}
			tmp, err := os.CreateTemp(e.out, "run-*.json")
			if err != nil {
				return err
			}
			tmp.Close()
			cmd := exec.Command(self, "-workload", def.name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(o.seconds), "-trace", trace, "-scale", o.scale, "-json", tmp.Name())
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			data, readErr := os.ReadFile(tmp.Name())
			os.Remove(tmp.Name())
			var rec record
			if readErr == nil && json.Unmarshal(data, &rec) == nil && rec.Workload != "" {
				all.Runs = append(all.Runs, &rec)
			}
			if runErr != nil {
				failed++
				fmt.Fprintf(os.Stderr, "bench: %s (seed %d, trace %s): %v\n", def.name, s, trace, runErr)
			}
			fmt.Println()
		}
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, &all); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", len(all.Runs), o.jsonOut)
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed", failed)
	}
	return nil
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	runs     int
	jsonOut  string
	verbose  bool
	compare  bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name, or \"all\" (one child process per workload and run)")
	flag.Int64Var(&o.seed, "seed", 1, "keys payload content, simulator seeds, session nonces and target order")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement window per run")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.scale, "scale", "full", "full, or smoke (tiny sizes, one round: what the tier-1 test runs)")
	flag.IntVar(&o.runs, "runs", 1, "with -workload all: untraced runs per workload (seeds seed, seed+1, ...)")
	flag.StringVar(&o.jsonOut, "json", "", "also write the full record(s) to this file")
	flag.BoolVar(&o.verbose, "v", false, "print every round as it finishes")
	flag.BoolVar(&o.compare, "compare", false, "compare two -workload all files: bench -compare old.json new.json")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.scale != "full" && o.scale != "smoke" {
		return fmt.Errorf("unknown -scale %q (want full or smoke)", o.scale)
	}
	if o.compare {
		if len(args) != 2 {
			return errors.New("-compare needs two files: old.json new.json")
		}
		return compareFiles(args[0], args[1])
	}
	if o.workload == "all" {
		return runAll(o)
	}
	def, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown -workload %q (want all or one of %v)", o.workload, workloadNames())
	}
	e, err := newEnv(o.seed, o.scale == "smoke")
	if err != nil {
		return err
	}
	e.verbose = o.verbose
	rec, err := runWorkload(def, e, o.seconds, o.trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w", def.name, err)
	}
	rec.print()
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{Correct: rec.FailedOps == 0, Attempted: rec.Ops, Failed: rec.FailedOps, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rec.FailedOps > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", def.name, rec.FailedOps, rec.Ops)
	}
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
