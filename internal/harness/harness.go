// Package harness scales the single-flow experiments to fleets: many
// concurrent ARQ flows contending for one bottleneck link inside each
// simulation, and many seeded simulations sharded across a worker pool.
//
// The concurrency contract is inherited from netsim: a Sim is
// single-threaded, so the harness never shares one across goroutines —
// it gives every shard its own Sim (seeded Seed+shard for deterministic,
// reproducible sweeps) and only aggregates the immutable per-flow
// results after each shard's event loop has drained. That keeps every
// simulation bit-for-bit reproducible while the sweep as a whole uses
// every core the host offers.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/faults"
	"protodsl/internal/metrics"
	"protodsl/internal/netsim"
)

// ErrConfig is returned for invalid harness configurations.
var ErrConfig = errors.New("harness: invalid config")

// Variant selects the ARQ flavour the flows run.
type Variant int

// ARQ variants.
const (
	VariantGBN Variant = iota // go-back-N with cumulative acks
	VariantSR                 // selective repeat with individual acks
)

// String returns the variant name.
func (v Variant) String() string {
	switch v {
	case VariantGBN:
		return "go-back-N"
	case VariantSR:
		return "selective-repeat"
	default:
		return "unknown"
	}
}

// MultiFlowConfig parameterises one multi-flow contention experiment:
// Flows concurrent transfers multiplexed over a single bottleneck link
// inside one simulation, replicated across seeded shards.
type MultiFlowConfig struct {
	// Flows is the number of concurrent flows per shard (1..256, the mux
	// id space).
	Flows int
	// PayloadsPerFlow and PayloadSize shape each flow's transfer.
	PayloadsPerFlow int
	PayloadSize     int
	// Variant selects go-back-N or selective repeat.
	Variant Variant
	// Window, RTO, MaxRetries parameterise every flow (see arq.FlowConfig).
	Window     int
	RTO        time.Duration
	MaxRetries int
	// Adaptive switches every flow to the RFC 6298 RTO estimator seeded
	// from RTO, with MinRTO/MaxRTO clamping (zero selects the arq
	// defaults). Off, RTO is the fixed timeout, exactly as before.
	Adaptive bool
	MinRTO   time.Duration
	MaxRTO   time.Duration
	// Bottleneck is applied to the shared link in both directions: its
	// Bandwidth (if set) is what the flows contend for.
	Bottleneck netsim.LinkParams
	// Faults, if non-nil, layers the fault schedule over the bottleneck:
	// each shard derives its own pair of injectors (one per direction,
	// instance ids 2·shard and 2·shard+1), so the chaos pattern differs
	// across shards but every shard replays bit-for-bit.
	Faults *faults.Schedule
	// Seed seeds shard 0; shard s uses Seed+s.
	Seed int64
	// EventBudget bounds each shard's event count. Zero selects a budget
	// proportional to the workload.
	EventBudget int
}

func (c *MultiFlowConfig) validate() error {
	if c.Flows < 1 || c.Flows > 256 {
		return fmt.Errorf("%w: %d flows outside 1..256 (mux id space)", ErrConfig, c.Flows)
	}
	if c.PayloadsPerFlow < 0 || c.PayloadSize < 0 {
		return fmt.Errorf("%w: negative payload shape", ErrConfig)
	}
	return nil
}

func (c *MultiFlowConfig) budget() int {
	if c.EventBudget > 0 {
		return c.EventBudget
	}
	retries := c.MaxRetries
	if retries == 0 {
		retries = 10
	}
	return 50000 + 200*c.Flows*(c.PayloadsPerFlow+1)*(retries+2)
}

// FlowResult is one flow's outcome within one shard.
type FlowResult struct {
	Shard       int
	Flow        int
	OK          bool
	Duration    time.Duration // virtual time at which the flow finished
	Bytes       int           // payload bytes delivered
	PacketsSent int
	Retransmits int
}

// Goodput returns the flow's delivered payload bytes per virtual second.
func (r FlowResult) Goodput() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Duration.Seconds()
}

// DistinctPayloads builds deterministic payloads whose content is keyed
// by the caller's key (callers derive it from shard/flow ids), so flows
// carrying different keys can never be silently swapped without the
// content checks noticing. It is shared by the simulated harness, the
// rtnet loopback tests and cmd/protosim's real-network client, keeping
// the "distinct per-flow payloads" guarantee identical across the
// simulated and real paths.
//
// Byte j of payload i is byte(key+i+j), so payload i is the window
// pattern[i%256 : i%256+size] of one 256+size-byte payloadPattern. The
// payloads share that array rather than copying it, so their bytes cost
// 256+size whatever count is. Each is capped at its length, so
// appending to one reallocates rather than overwriting the next. They
// are read-only: the engines only read their payloads, and a write into
// one would change every payload that shares its bytes.
func DistinctPayloads(key, count, size int) [][]byte {
	out := make([][]byte, count)
	pattern := payloadPattern(key, size)
	for i := range out {
		a, b := i%256, i%256+size
		out[i] = pattern[a:b:b]
	}
	return out
}

// payloadPattern returns the 256+size bytes byte(key+k). Payload i of
// DistinctPayloads(key, _, size) is pattern[i%256 : i%256+size]: the
// payload bytes wrap modulo 256, so 256 offsets cover every index.
func payloadPattern(key, size int) []byte {
	p := make([]byte, 256+size)
	for k := range p {
		p[k] = byte(key + k)
	}
	return p
}

// flowKey is the DistinctPayloads key of one flow: distinct across
// shards and flows so cross-flow delivery mixups cannot cancel out.
func flowKey(shard, flow int) int { return shard*31 + flow*7 }

// checkDelivered verifies delivered against the rule that generated the
// flow's payloads (DistinctPayloads(key, count, size)) and returns the
// payload bytes delivered. It recomputes the content from the rule
// rather than reading the sender's slices, so an engine that corrupted
// its own copy cannot also corrupt the reference.
func checkDelivered(delivered [][]byte, key, count, size int) (int, error) {
	if len(delivered) > count {
		return 0, fmt.Errorf("delivered %d > sent %d", len(delivered), count)
	}
	pattern := payloadPattern(key, size)
	n := 0
	for i, p := range delivered {
		if !bytes.Equal(p, pattern[i%256:i%256+size]) {
			return 0, fmt.Errorf("payload %d content mismatch", i)
		}
		n += len(p)
	}
	return n, nil
}

// RunShard runs one seeded simulation hosting cfg.Flows concurrent
// flows over a single muxed bottleneck link and returns per-flow
// results. It is self-contained (builds and drains its own Sim), so
// distinct shards may run on distinct goroutines.
func RunShard(cfg MultiFlowConfig, shard int) ([]FlowResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sim := netsim.New(cfg.Seed + int64(shard))
	left, err := sim.NewEndpoint("left")
	if err != nil {
		return nil, err
	}
	right, err := sim.NewEndpoint("right")
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		fwd, rev := cfg.Bottleneck, cfg.Bottleneck
		fi, err := cfg.Faults.Instance(int64(2 * shard))
		if err != nil {
			return nil, err
		}
		ri, err := cfg.Faults.Instance(int64(2*shard + 1))
		if err != nil {
			return nil, err
		}
		fwd.Faults, rev.Faults = fi, ri
		sim.ConnectDirectional(left, right, fwd)
		sim.ConnectDirectional(right, left, rev)
	} else {
		sim.Connect(left, right, cfg.Bottleneck)
	}
	lm, rm := netsim.NewMux(left), netsim.NewMux(right)

	fcfg := arq.FlowConfig{
		Window: cfg.Window, RTO: cfg.RTO, MaxRetries: cfg.MaxRetries,
		Adaptive: cfg.Adaptive, MinRTO: cfg.MinRTO, MaxRTO: cfg.MaxRTO,
	}
	start := arq.StartGBN
	if cfg.Variant == VariantSR {
		start = arq.StartSR
	}
	flows := make([]*arq.WindowFlow, cfg.Flows)
	for f := range flows {
		sport, err := lm.Flow(byte(f))
		if err != nil {
			return nil, err
		}
		rport, err := rm.Flow(byte(f))
		if err != nil {
			return nil, err
		}
		payloads := DistinctPayloads(flowKey(shard, f), cfg.PayloadsPerFlow, cfg.PayloadSize)
		if flows[f], err = start(sim, sport, rport, fcfg, payloads); err != nil {
			return nil, err
		}
	}

	if err := sim.RunUntilIdle(cfg.budget()); err != nil {
		return nil, fmt.Errorf("harness shard %d: %w", shard, err)
	}
	for f, fl := range flows {
		if err := fl.Err(); err != nil {
			return nil, fmt.Errorf("harness shard %d flow %d: %w", shard, f, err)
		}
		if !fl.Done() {
			return nil, fmt.Errorf("harness shard %d flow %d: idle but unfinished", shard, f)
		}
	}

	results := make([]FlowResult, cfg.Flows)
	for f := range results {
		r := flows[f].Result()
		// Verify content, not just counts: each flow's payloads are
		// distinct (flowKey), so any cross-flow mixup or silent
		// corruption slipping past the wire checksums surfaces here.
		deliveredBytes, err := checkDelivered(r.Delivered, flowKey(shard, f), cfg.PayloadsPerFlow, cfg.PayloadSize)
		if err != nil {
			return nil, fmt.Errorf("harness shard %d flow %d: %w", shard, f, err)
		}
		results[f] = FlowResult{
			Shard: shard, Flow: f, OK: r.OK, Duration: r.Duration,
			Bytes: deliveredBytes, PacketsSent: r.PacketsSent, Retransmits: r.Retransmits,
		}
	}
	return results, nil
}

// Report aggregates a sharded multi-flow run.
type Report struct {
	Flows       int // total across shards
	OKFlows     int
	PacketsSent int
	Retransmits int
	// Duration and Goodput summarise per-flow outcomes; Fairness
	// summarises Jain's index of per-flow goodputs within each shard.
	Duration metrics.Summary // seconds of virtual time
	Goodput  metrics.Summary // bytes per virtual second
	Fairness metrics.Summary // one observation per shard
	// Results holds every flow, shard-major, for detailed inspection.
	Results []FlowResult

	// goodputs is the per-shard fairness scratch buffer, kept so
	// AggregateInto reuses it across runs instead of growing a fresh
	// slice per shard.
	goodputs []float64
}

// Run executes shards instances of the experiment across a worker pool
// (workers <= 0 selects GOMAXPROCS) and aggregates per-flow metrics.
// Shard s is seeded cfg.Seed+s, so the sweep is deterministic regardless
// of worker count or interleaving.
func Run(cfg MultiFlowConfig, shards, workers int) (*Report, error) {
	if shards < 1 {
		return nil, fmt.Errorf("%w: %d shards", ErrConfig, shards)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}

	perShard := make([][]FlowResult, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for shard := range next {
				perShard[shard], errs[shard] = RunShard(cfg, shard)
			}
		}()
	}
	for shard := 0; shard < shards; shard++ {
		next <- shard
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return Aggregate(perShard), nil
}

// Aggregate summarises per-flow results grouped by shard into a Report.
// It is the metrics tail of Run, split out so callers that measured
// flows elsewhere — in particular cmd/protosim's rtnet client mode,
// whose durations come from the real monotonic clock instead of virtual
// time — feed the same aggregation pipeline (goodput and duration
// summaries, per-shard Jain fairness) the simulated experiments use.
func Aggregate(perShard [][]FlowResult) *Report {
	rep := &Report{}
	AggregateInto(rep, perShard)
	return rep
}

// AggregateInto is Aggregate reusing the caller's Report: the Results
// slice and the fairness scratch buffer are preallocated from the
// shard counts (one sizing pass, then exact-capacity fills), so the
// merge performs no per-sample allocation and a warm Report aggregates
// repeatedly at 0 allocs/op — the shape long-running collectors
// (periodic rtnet metrics, benchmark loops) want. Previous contents of
// rep are discarded.
func AggregateInto(rep *Report, perShard [][]FlowResult) {
	total, maxFlows := 0, 0
	for _, results := range perShard {
		total += len(results)
		if len(results) > maxFlows {
			maxFlows = len(results)
		}
	}
	results := rep.Results[:0]
	if cap(results) < total {
		results = make([]FlowResult, 0, total)
	}
	goodputs := rep.goodputs[:0]
	if cap(goodputs) < maxFlows {
		goodputs = make([]float64, 0, maxFlows)
	}
	*rep = Report{Results: results, goodputs: goodputs}
	for _, results := range perShard {
		shardGoodputs := rep.goodputs[:0]
		for _, r := range results {
			rep.Results = append(rep.Results, r)
			rep.Flows++
			rep.PacketsSent += r.PacketsSent
			rep.Retransmits += r.Retransmits
			if r.OK {
				rep.OKFlows++
			}
			g := r.Goodput()
			shardGoodputs = append(shardGoodputs, g)
			rep.Goodput.Add(g)
			rep.Duration.Add(r.Duration.Seconds())
		}
		rep.Fairness.Add(metrics.JainFairness(shardGoodputs))
	}
}
