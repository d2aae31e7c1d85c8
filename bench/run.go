package main

import (
	"fmt"
	"runtime"
	"time"

	"protodsl/internal/obs"
)

// env is what one invocation hands every workload.
type env struct {
	seed    int64
	smoke   bool   // -scale smoke: tiny sizes, one round, for the tier-1 test
	verbose bool   // -v: print every round
	root    string // repository root (examples/specs, BENCHMARK.json)
	out     string // bench/out: traces, JSON records, session state logs
	// What the real-socket workloads' nodes found (noteNode).
	shards, sockets int
	gso, gro        bool
}

// countID indexes one per-layer event count of a round.
type countID int

const (
	// rtnet: obs totals of both nodes of the round.
	cFramesIn countID = iota
	cFramesOut
	cSheds
	cDrops
	cGsoBursts
	cGsoSegs
	cGroBundles
	cGroSegs
	// arq, from obs (from the transfer's statistics on the simulator).
	cRetransmits
	cTimeouts
	// session.
	cHandshakesOK
	cDropNoSession
	cStalled
	cStateLogBytes
	// netsim.
	cSimEvents
	cLinkDrops
	// verify.
	cStates
	cTransitions
	cDupHits
	cArenaBytes   // max over targets, not a sum
	cFrontierPeak // max over targets, not a sum
	cBuildNs
	cSmallTargetsNs
	cBigNs
	cBigState
	// sim_stopwait call counts, from the transfer's own statistics.
	cMachineSteps
	cPktEncodes
	cAckEncodes
	cPktDecodes
	cAckDecodes
	cTimerArms
	numCounts
)

// counts are the per-layer event counts one round contributes, plus the
// client-side RTT histogram.
type counts struct {
	n   [numCounts]uint64
	rtt [obs.HistBuckets]uint64
}

// add folds o into c: sums, except the two high-water marks.
func (c *counts) add(o *counts) {
	for i := range c.n {
		if id := countID(i); id == cArenaBytes || id == cFrontierPeak {
			c.n[i] = max(c.n[i], o.n[i])
		} else {
			c.n[i] += o.n[i]
		}
	}
	for i := range c.rtt {
		c.rtt[i] += o.rtt[i]
	}
}

// sub returns c - prev (the long-lived churn server reports per-round
// deltas of its node's totals).
func (c counts) sub(prev counts) counts {
	for i := range c.n {
		c.n[i] -= prev.n[i]
	}
	return c
}

// roundStat is one measured round. An item is the workload's unit of
// useful output (a verified payload packet; an explored state on
// verify_grid); an op is what a user waits for (a flow, a session, a
// transfer, a sweep, a verification pass).
type roundStat struct {
	wall, cpu    time.Duration
	items        int       // verified
	attempts     int       // items the system spent work on (data packets sent; transitions executed)
	payloadBytes int       // verified payload bytes (0 where there is no payload)
	ops, failed  int       // attempted / failed, refused, timed out or mis-delivered
	opMs         []float64 // completion time of every op that succeeded
	jain         float64   // Jain index over per-flow goodputs (0 when not applicable)
	failures     []string  // first few failure messages
	counts       counts
}

// workload is one named load shape. setup builds the inputs and any
// long-lived state and runs the discarded warm-up round; the driver
// times it (setup_s) and may call setup/teardown several times.
type workload interface {
	setup(e *env) error
	teardown()
	// round runs measured round i; tr is nil on untraced rounds.
	round(e *env, i int, tr *tracer) (roundStat, error)
	// payloadSize is the size the isolated codec timings run at.
	payloadSize() int
	// sampleN is the 1-in-N root sampling rate the traced run uses.
	sampleN() uint64
}

type workloadDef struct {
	name string
	why  string
	make func() workload
}

// workloads is the fixed table; BENCHMARK.json mirrors names and
// reasons (the smoke test fails on drift).
var workloads = []workloadDef{
	{"bulk64_gbn", "64 go-back-N flows x W16 x 1 KiB over loopback overrun the depth-4 shard inbox: shedding, retransmission and fairness under self-inflicted loss",
		func() workload {
			return &transferWL{variant: "gbn", flows: 64, window: 16, perFlow: 2000, size: 1024, sample: 64}
		}},
	{"small8_sr", "8 selective-repeat flows x W16 x 64 B: no sheds, so per-packet cost (codec, timers, mux, obs) dominates and flow control is bypassed",
		func() workload {
			return &transferWL{variant: "sr", flows: 8, window: 16, perFlow: 60000, size: 64, sample: 128}
		}},
	{"churn_session", "256 short sessions per round, 8 at a time, against one long-lived server: handshake machines, per-engine codec compilation, snapshot writes",
		func() workload { return &churnWL{sessions: 256, slots: 8, window: 8, perFlow: 32, size: 256} }},
	{"sim_stopwait", "the paper's stop-and-wait run by the compiled DSL machines over netsim with 10% loss: machine step + codec + timer wheel, no kernel",
		func() workload { return &stopWaitWL{perTransfer: 2000, size: 64, batch: 64} }},
	{"sim_multiflow", "32 windowed flows x 32 seeded shards over a lossy 4 MiB/s bottleneck in virtual time: the engines' loss/timeout paths and the sharded harness",
		func() workload { return &multiFlowWL{flows: 32, perFlow: 400, size: 256, window: 16, shards: 32} }},
	{"verify_grid", "the model checker over spec and ARQ/handshake targets with known verdicts in both directions: the verifier is a product CI waits on",
		func() workload { return &verifyWL{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// segment runs rounds of w until budget has elapsed (always at least
// one; exactly one under -scale smoke), stopping early on a failed op.
func segment(e *env, w workload, budget time.Duration, first int, tr *tracer) ([]roundStat, error) {
	var rounds []roundStat
	start := time.Now()
	for i := first; ; i++ {
		rs, err := w.round(e, i, tr)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, rs)
		if e.verbose {
			fmt.Printf("  round %3d: wall %8.1f ms  %10.0f items/s  %8.1f cpu ns/item  ops %d failed %d sheds %d retransmits %d\n",
				i, float64(rs.wall)/1e6, ratio(float64(rs.items), rs.wall.Seconds()), ratio(float64(rs.cpu), float64(rs.items)),
				rs.ops, rs.failed, rs.counts.n[cSheds], rs.counts.n[cRetransmits])
		}
		if e.smoke || rs.failed > 0 || time.Since(start) >= budget {
			return rounds, nil
		}
	}
}

// timedSetup runs setup several times (tearing down all but the last)
// and returns each repetition's duration; setup_s is their median. It
// repeats at least three times and then until 1.5 s have gone into
// set-up or fifteen repetitions are done, so a set-up of milliseconds
// is not judged on three samples. Process-once work (the session
// package compiles the handshake spec under a sync.Once) lands in the
// first repetition only. Under -scale smoke it runs once.
func timedSetup(e *env, w workload) ([]float64, error) {
	var secs []float64
	var total float64
	for i := 0; i < 15 && (i < 3 || total < 1.5) && !(e.smoke && i > 0); i++ {
		if i > 0 {
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		total += secs[i]
	}
	return secs, nil
}

// summary folds rounds into the run-level figures every workload
// shares.
type summary struct {
	rounds               int
	ops, failed          int
	items, attempts      int
	payloadBytes         int
	itemsPerS, cpuNsItem float64 // medians over rounds
	goodputMBps, jain    float64 // medians over rounds
	opsPerS              float64 // median over rounds
	opMs                 []float64
	failures             []string
	counts               counts
	wall                 time.Duration
}

func summarise(rounds []roundStat) summary {
	var s summary
	var ips, cpi, gp, jn, ops []float64
	for i := range rounds {
		r := &rounds[i]
		s.rounds++
		s.ops += r.ops
		s.failed += r.failed
		s.items += r.items
		s.attempts += r.attempts
		s.payloadBytes += r.payloadBytes
		s.wall += r.wall
		s.opMs = append(s.opMs, r.opMs...)
		s.counts.add(&r.counts)
		for _, f := range r.failures {
			if len(s.failures) < 8 {
				s.failures = append(s.failures, f)
			}
		}
		sec := r.wall.Seconds()
		ips = append(ips, ratio(float64(r.items), sec))
		cpi = append(cpi, ratio(float64(r.cpu), float64(r.items)))
		gp = append(gp, ratio(float64(r.payloadBytes)/1e6, sec))
		ops = append(ops, ratio(float64(r.ops-r.failed), sec))
		if r.jain > 0 {
			jn = append(jn, r.jain)
		}
	}
	s.itemsPerS, s.cpuNsItem = median(ips), median(cpi)
	s.goodputMBps, s.jain, s.opsPerS = median(gp), median(jn), median(ops)
	return s
}
