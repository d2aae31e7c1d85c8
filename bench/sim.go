package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/harness"
	"protodsl/internal/netsim"
)

// simSeed spreads the run seed so that the simulator seeds of different
// -seed values never overlap within a run.
func simSeed(seed int64, n int) int64 { return seed*1_000_003 + int64(n) }

// stopWaitWL is sim_stopwait: arq.RunTransfer — the paper's §3.4
// stop-and-wait, executed by the compiled fsm machines — over a lossy,
// corrupting netsim link, one transfer after another on one goroutine.
// A round is batch transfers; every transfer uses a fresh simulator
// seed.
type stopWaitWL struct {
	perTransfer, size, batch int
	payloads                 [][]byte
	seed                     int64
	nextSim                  int
}

func (w *stopWaitWL) payloadSize() int { return w.size }
func (w *stopWaitWL) sampleN() uint64  { return 1 }
func (w *stopWaitWL) teardown()        { w.payloads = nil }

func (w *stopWaitWL) config(simSeed int64) arq.Config {
	return arq.Config{
		Link: netsim.LinkParams{
			Delay: 2 * time.Millisecond, LossProb: 0.10, CorruptProb: 0.02,
		},
		RTO: 25 * time.Millisecond, MaxRetries: 50, Seed: simSeed,
	}
}

func (w *stopWaitWL) setup(e *env) error {
	if e.smoke {
		w.perTransfer, w.batch = 200, 4
	}
	w.seed, w.nextSim = e.seed, 0
	w.payloads = harness.DistinctPayloads(int(e.seed), w.perTransfer, w.size)
	// Warm-up doubles as the determinism check: the same seed twice must
	// send, retransmit and take (virtual time) exactly the same.
	a, err := arq.RunTransfer(w.config(simSeed(w.seed, -1)), w.payloads)
	if err != nil {
		return err
	}
	b, err := arq.RunTransfer(w.config(simSeed(w.seed, -1)), w.payloads)
	if err != nil {
		return err
	}
	return sameRun("stop-and-wait",
		[3]int64{int64(a.Sender.PacketsSent), int64(a.Sender.Retransmits), int64(a.Duration)},
		[3]int64{int64(b.Sender.PacketsSent), int64(b.Sender.Retransmits), int64(b.Duration)})
}

// sameRun is the determinism check shared by the simulator workloads:
// {packets sent, retransmits, virtual duration} of two runs of one
// seed. Absolute values are not pinned — a protocol change may move
// them — only their repeatability.
func sameRun(what string, a, b [3]int64) error {
	if a != b {
		return fmt.Errorf("%s is not deterministic: same seed gave sent/retransmits/virtual-ns %v then %v", what, a, b)
	}
	return nil
}

func (w *stopWaitWL) round(e *env, i int, tr *tracer) (roundStat, error) {
	var rs roundStat
	cpu0, t0 := cpuTime(), time.Now()
	for k := 0; k < w.batch; k++ {
		cfg := w.config(simSeed(w.seed, w.nextSim))
		w.nextSim++
		s := time.Now()
		res, err := arq.RunTransfer(cfg, w.payloads)
		d := time.Since(s)
		if err != nil {
			return rs, err
		}
		rs.ops++
		rs.attempts += res.Sender.PacketsSent
		var why error
		if !res.OK {
			why = fmt.Errorf("sender ended in %s", res.SenderState)
		} else {
			why = checkDelivery(res.Delivered, w.payloads)
		}
		if why != nil {
			rs.failed++
			if len(rs.failures) < 4 {
				rs.failures = append(rs.failures, fmt.Sprintf("transfer seed %d: %v", cfg.Seed, why))
			}
			continue
		}
		rs.items += len(res.Delivered)
		rs.payloadBytes += len(res.Delivered) * w.size
		rs.opMs = append(rs.opMs, float64(d)/1e6)
		c := &rs.counts
		c.n[cRetransmits] += uint64(res.Sender.Retransmits)
		c.n[cTimeouts] += uint64(res.Sender.Timeouts)
		c.n[cLinkDrops] += res.Network.Dropped
		// RunTransfer owns its Sim, so Processed() is out of reach; every
		// event is a delivery, a fired timer or the one posted start.
		c.n[cSimEvents] += res.Network.Delivered + uint64(res.Sender.Timeouts) + 1
		// Call counts for the layer table (the traced run multiplies them
		// by the isolated timings: there is no seam to interpose at).
		c.n[cMachineSteps] += uint64(res.Sender.PacketsSent + res.Sender.AcksReceived + res.Sender.AcksCorrupted +
			2*res.Sender.Timeouts + 1 + res.Receiver.PacketsReceived + 1)
		c.n[cPktEncodes] += uint64(res.Sender.PacketsSent)
		c.n[cAckEncodes] += uint64(res.Receiver.AcksSent)
		c.n[cPktDecodes] += uint64(res.Receiver.PacketsReceived + res.Receiver.PacketsCorrupted)
		c.n[cAckDecodes] += uint64(res.Sender.AcksReceived + res.Sender.AcksCorrupted)
		c.n[cTimerArms] += uint64(res.Sender.PacketsSent)
	}
	rs.wall, rs.cpu = time.Since(t0), cpuTime()-cpu0
	return rs, nil
}

// multiFlowWL is sim_multiflow: harness.Run, go-back-N then selective
// repeat, flows windowed flows per simulated bottleneck, shards seeded
// simulations across GOMAXPROCS workers, all in virtual time. A round
// (and an op) is one GBN sweep plus one SR sweep.
type multiFlowWL struct {
	flows, perFlow, size, window, shards int
	seed                                 int64
	nextSim                              int
}

func (w *multiFlowWL) payloadSize() int { return w.size }
func (w *multiFlowWL) sampleN() uint64  { return 64 }
func (w *multiFlowWL) teardown()        {}

func (w *multiFlowWL) config(v harness.Variant, simSeed int64) harness.MultiFlowConfig {
	return harness.MultiFlowConfig{
		Flows: w.flows, PayloadsPerFlow: w.perFlow, PayloadSize: w.size,
		Variant: v, Window: w.window,
		RTO: 120 * time.Millisecond, MaxRetries: 60,
		Bottleneck: netsim.LinkParams{
			Delay: 2 * time.Millisecond, Bandwidth: 4 << 20, LossProb: 0.02,
		},
		Seed: simSeed,
	}
}

func (w *multiFlowWL) setup(e *env) error {
	if e.smoke {
		w.flows, w.perFlow, w.shards = 4, 40, 2
	}
	w.seed, w.nextSim = e.seed, 0
	// Warm-up doubles as the determinism check, on two shards per variant
	// (a full sweep twice over would triple the set-up time).
	for _, v := range []harness.Variant{harness.VariantGBN, harness.VariantSR} {
		cfg := w.config(v, simSeed(w.seed, -2))
		a, err := harness.Run(cfg, 2, 0)
		if err != nil {
			return err
		}
		b, err := harness.Run(cfg, 2, 0)
		if err != nil {
			return err
		}
		if err := sameRun(v.String(),
			[3]int64{int64(a.PacketsSent), int64(a.Retransmits), int64(a.Duration.Sum() * 1e9)},
			[3]int64{int64(b.PacketsSent), int64(b.Retransmits), int64(b.Duration.Sum() * 1e9)}); err != nil {
			return err
		}
	}
	return nil
}

func (w *multiFlowWL) round(e *env, i int, tr *tracer) (roundStat, error) {
	var rs roundStat
	rs.ops = 1
	var jains []float64
	cpu0, t0 := cpuTime(), time.Now()
	for _, v := range []harness.Variant{harness.VariantGBN, harness.VariantSR} {
		cfg := w.config(v, simSeed(w.seed, w.nextSim))
		w.nextSim += w.shards
		var rep *harness.Report
		var events uint64
		var err error
		if tr == nil {
			rep, err = harness.Run(cfg, w.shards, 0)
		} else {
			rep, events, err = tracedSweep(cfg, w.shards, i, tr)
		}
		if err != nil {
			// harness.Run verifies every delivered payload byte for byte
			// and reports a mismatch as an error: a failed op, not a crash.
			rs.failed = 1
			rs.failures = append(rs.failures, err.Error())
			break
		}
		if rep.OKFlows != rep.Flows {
			rs.failed = 1
			rs.failures = append(rs.failures, fmt.Sprintf("%s: %d of %d flows finished", v, rep.OKFlows, rep.Flows))
		}
		rs.attempts += rep.PacketsSent
		rs.counts.n[cRetransmits] += uint64(rep.Retransmits)
		rs.counts.n[cSimEvents] += events
		for _, fr := range rep.Results {
			if fr.OK {
				rs.items += fr.Bytes / w.size
				rs.payloadBytes += fr.Bytes
			}
		}
		jains = append(jains, rep.Fairness.Mean())
	}
	rs.wall, rs.cpu = time.Since(t0), cpuTime()-cpu0
	if rs.failed == 0 {
		rs.opMs = []float64{float64(rs.wall) / 1e6}
		rs.jain = median(jains)
	}
	return rs, nil
}

// tracedSweep is harness.Run rebuilt from the public netsim / arq.Start*
// pieces with the tracing wrappers interposed (harness.Run builds its
// own Sim, which leaves no seam): same topology, seeds, payloads and
// worker pool, so its result is the harness's. It additionally returns
// the simulators' processed-event count.
func tracedSweep(cfg harness.MultiFlowConfig, shards, round int, tr *tracer) (*harness.Report, uint64, error) {
	workers := min(runtime.GOMAXPROCS(0), shards)
	bufs := make([]*spanBuf, workers)
	for i := range bufs {
		bufs[i] = tr.buf(fmt.Sprintf("sim-worker/%d", i))
	}
	perShard := make([][]harness.FlowResult, shards)
	errs := make([]error, shards)
	events := make([]uint64, shards)
	next := make(chan int)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(b *spanBuf) {
			defer wg.Done()
			for shard := range next {
				perShard[shard], events[shard], errs[shard] = tracedShard(cfg, shard, round, b)
			}
		}(bufs[wk])
	}
	for shard := 0; shard < shards; shard++ {
		next <- shard
	}
	close(next)
	wg.Wait()
	var total uint64
	for s := range errs {
		if errs[s] != nil {
			return nil, 0, errs[s]
		}
		total += events[s]
	}
	return harness.Aggregate(perShard), total, nil
}

func tracedShard(cfg harness.MultiFlowConfig, shard, round int, b *spanBuf) ([]harness.FlowResult, uint64, error) {
	sim := netsim.New(cfg.Seed + int64(shard))
	left, err := sim.NewEndpoint("left")
	if err != nil {
		return nil, 0, err
	}
	right, err := sim.NewEndpoint("right")
	if err != nil {
		return nil, 0, err
	}
	sim.Connect(left, right, cfg.Bottleneck)
	lm, rm := netsim.NewMux(left), netsim.NewMux(right)
	fcfg := arq.FlowConfig{Window: cfg.Window, RTO: cfg.RTO, MaxRetries: cfg.MaxRetries}

	type flow struct {
		done   func() bool
		err    func() error
		result func() (ok bool, dur time.Duration, delivered [][]byte, sent, retrans int)
	}
	flows := make([]flow, cfg.Flows)
	want := make([][][]byte, cfg.Flows)
	for f := range flows {
		sport, err := lm.Flow(byte(f))
		if err != nil {
			return nil, 0, err
		}
		rport, err := rm.Flow(byte(f))
		if err != nil {
			return nil, 0, err
		}
		req := reqID(round, f)
		trt := &tracedRuntime{inner: sim, buf: b, req: req, timer: spSenderTimer, post: spSenderPump}
		tsp := &tracedPort{inner: sport, buf: b, req: req, send: spLinkSend, handler: spSenderAck}
		trp := &tracedPort{inner: rport, buf: b, req: req, send: spLinkSend, handler: spRecvDatagram}
		// The harness's payload key (shard*31 + flow*7), so both paths
		// carry identical bytes.
		want[f] = harness.DistinctPayloads(shard*31+f*7, cfg.PayloadsPerFlow, cfg.PayloadSize)
		idx := b.begin(spNewEngine, req)
		if cfg.Variant == harness.VariantSR {
			fl, err := arq.StartSR(trt, tsp, trp, fcfg, want[f])
			if err != nil {
				return nil, 0, err
			}
			flows[f] = flow{fl.Done, fl.Err, func() (bool, time.Duration, [][]byte, int, int) {
				r := fl.Result()
				return r.OK, r.Duration, r.Delivered, r.PacketsSent, r.Retransmits
			}}
		} else {
			fl, err := arq.StartGBN(trt, tsp, trp, fcfg, want[f])
			if err != nil {
				return nil, 0, err
			}
			flows[f] = flow{fl.Done, fl.Err, func() (bool, time.Duration, [][]byte, int, int) {
				r := fl.Result()
				return r.OK, r.Duration, r.Delivered, r.PacketsSent, r.Retransmits
			}}
		}
		b.end(idx)
	}
	budget := 50000 + 200*cfg.Flows*(cfg.PayloadsPerFlow+1)*(cfg.MaxRetries+2)
	if err := sim.RunUntilIdle(budget); err != nil {
		return nil, 0, fmt.Errorf("traced shard %d: %w", shard, err)
	}
	results := make([]harness.FlowResult, cfg.Flows)
	for f, fl := range flows {
		if err := fl.err(); err != nil {
			return nil, 0, fmt.Errorf("traced shard %d flow %d: %w", shard, f, err)
		}
		if !fl.done() {
			return nil, 0, fmt.Errorf("traced shard %d flow %d: idle but unfinished", shard, f)
		}
		ok, dur, delivered, sent, retrans := fl.result()
		if len(delivered) > len(want[f]) {
			return nil, 0, fmt.Errorf("traced shard %d flow %d: delivered %d > sent %d", shard, f, len(delivered), len(want[f]))
		}
		if err := checkDelivery(delivered, want[f][:len(delivered)]); err != nil {
			return nil, 0, fmt.Errorf("traced shard %d flow %d: %w", shard, f, err)
		}
		n := 0
		for _, p := range delivered {
			n += len(p)
		}
		results[f] = harness.FlowResult{Shard: shard, Flow: f, OK: ok, Duration: dur,
			Bytes: n, PacketsSent: sent, Retransmits: retrans}
	}
	return results, sim.Processed(), nil
}
