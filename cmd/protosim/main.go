// Command protosim runs the paper's ARQ protocol over the deterministic
// network simulator under configurable impairments, printing transfer
// statistics. It is the quickest way to *see* the protocol's behaviour:
//
//	protosim -payloads 50 -size 256 -loss 0.2 -dup 0.05 -corrupt 0.05
//	protosim -window 8 -delay 20ms      # go-back-N over a long-delay link
//
// With -connect it leaves the simulator behind entirely and drives the
// same engines over a real UDP socket against a protoserve instance —
// the sim-to-real demonstration:
//
//	protosim -connect 127.0.0.1:9000 -flows 64 -variant gbn -window 32
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/faults"
	"protodsl/internal/harness"
	"protodsl/internal/netsim"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "protosim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("protosim", flag.ContinueOnError)
	var (
		nPayloads  = fs.Int("payloads", 50, "number of payloads to transfer")
		size       = fs.Int("size", 128, "payload size in bytes")
		loss       = fs.Float64("loss", 0.1, "packet loss probability")
		dup        = fs.Float64("dup", 0, "duplication probability")
		corrupt    = fs.Float64("corrupt", 0, "bit-corruption probability")
		reorder    = fs.Float64("reorder", 0, "reordering probability")
		delay      = fs.Duration("delay", 2*time.Millisecond, "one-way link delay")
		jitter     = fs.Duration("jitter", 0, "delay jitter")
		rto        = fs.Duration("rto", 25*time.Millisecond, "retransmission timeout (initial value with -adaptive)")
		adaptive   = fs.Bool("adaptive", false, "RFC-6298 adaptive RTO with exponential backoff (window > 1 only)")
		retries    = fs.Int("retries", 50, "max retries per packet/window")
		window     = fs.Int("window", 1, "sender window (1 = stop-and-wait, >1 = go-back-N)")
		seed       = fs.Int64("seed", 1, "simulation seed")
		connect    = fs.String("connect", "", "run over real UDP against a protoserve at this host:port")
		flows      = fs.Int("flows", 64, "concurrent flows in -connect mode (1..256)")
		variant    = fs.String("variant", "gbn", "ARQ variant in -connect mode: gbn or sr")
		shards     = fs.Int("shards", 0, "client worker loops in -connect mode (0 = min(GOMAXPROCS, 4))")
		dumpStats  = fs.Bool("stats", false, "dump the observability snapshot (counters, RTT histogram) as JSON after the transfer")
		faultsPath = fs.String("faults", "", "JSON fault schedule (see DESIGN.md §13); layered over the sim link, or over the client node in -connect mode")
		sess       = fs.Bool("session", false, "in -connect mode: establish the cookie handshake per flow before sending, heartbeat while transferring, FIN teardown after (pair with protoserve -session)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sch *faults.Schedule
	if *faultsPath != "" {
		var err error
		if sch, err = faults.Load(*faultsPath); err != nil {
			return err
		}
	}
	if *adaptive && *connect == "" && *window <= 1 {
		return fmt.Errorf("-adaptive needs -window > 1: stop-and-wait has a single fixed timer (see DESIGN.md §13)")
	}
	if *sess && *connect == "" {
		return fmt.Errorf("-session only applies to -connect mode (the simulator drives machines directly)")
	}
	if *connect != "" {
		// Impairments are a property of the simulated link; the real
		// network supplies its own. Reject rather than silently ignore.
		simOnly := map[string]bool{
			"loss": true, "dup": true, "corrupt": true, "reorder": true,
			"delay": true, "jitter": true, "seed": true,
		}
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if simOnly[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("%s only apply to simulation and are ignored by -connect; remove them (the real network supplies its own impairments)",
				strings.Join(conflict, ", "))
		}
		return runClient(out, clientConfig{
			server: *connect, flows: *flows, variant: *variant, shards: *shards,
			payloads: *nPayloads, size: *size, window: *window,
			rto: *rto, adaptive: *adaptive, retries: *retries, stats: *dumpStats,
			faults: sch, session: *sess,
		})
	}

	payloads := make([][]byte, *nPayloads)
	for i := range payloads {
		p := make([]byte, *size)
		for j := range p {
			p[j] = byte(i + j)
		}
		payloads[i] = p
	}
	link := netsim.LinkParams{
		Delay: *delay, Jitter: *jitter,
		LossProb: *loss, DupProb: *dup, CorruptProb: *corrupt,
		ReorderProb: *reorder, ReorderDelay: 4 * *delay,
	}

	if *window > 1 {
		res, err := arq.RunTransferGBN(arq.GBNConfig{
			Link: link, RTO: *rto, Adaptive: *adaptive, MaxRetries: *retries,
			Window: *window, Seed: *seed, Faults: sch,
		}, payloads)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "go-back-N transfer (window %d)\n", *window)
		fmt.Fprintf(out, "  ok: %v\n  delivered: %d/%d\n  packets sent: %d (retransmits %d)\n",
			res.OK, len(res.Delivered), len(payloads), res.PacketsSent, res.Retransmits)
		fmt.Fprintf(out, "  virtual time: %s\n  goodput: %.0f bytes/s\n", res.Duration, res.Goodput())
		if *dumpStats {
			return res.Obs.WriteJSON(out)
		}
		return nil
	}

	res, err := arq.RunTransfer(arq.Config{
		Link: link, RTO: *rto, MaxRetries: *retries, Seed: *seed, Faults: sch,
	}, payloads)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stop-and-wait transfer (paper §3.4)\n")
	fmt.Fprintf(out, "  ok: %v (sender end state: %s)\n", res.OK, res.SenderState)
	fmt.Fprintf(out, "  delivered: %d/%d\n", len(res.Delivered), len(payloads))
	fmt.Fprintf(out, "  packets sent: %d (retransmits %d, timeouts %d)\n",
		res.Sender.PacketsSent, res.Sender.Retransmits, res.Sender.Timeouts)
	fmt.Fprintf(out, "  acks: %d received, %d corrupted, %d stale\n",
		res.Sender.AcksReceived, res.Sender.AcksCorrupted, res.Sender.StaleAcks)
	fmt.Fprintf(out, "  receiver: %d valid, %d corrupted (dropped), %d duplicates re-acked\n",
		res.Receiver.PacketsReceived, res.Receiver.PacketsCorrupted, res.Receiver.Duplicates)
	fmt.Fprintf(out, "  network: %s\n", res.Network)
	fmt.Fprintf(out, "  virtual time: %s\n  goodput: %.0f bytes/s\n", res.Duration, res.Goodput())
	if *dumpStats {
		return res.Obs.WriteJSON(out)
	}
	return nil
}

// clientConfig parameterises a real-network run against protoserve.
type clientConfig struct {
	server   string
	flows    int
	variant  string
	shards   int
	payloads int
	size     int
	window   int
	rto      time.Duration
	adaptive bool
	retries  int
	stats    bool
	faults   *faults.Schedule
	session  bool
}

// runClient drives cfg.flows concurrent ARQ senders over one UDP socket
// against a protoserve instance, then aggregates real-clock per-flow
// metrics through the same harness pipeline the simulated experiments
// use.
func runClient(out io.Writer, cfg clientConfig) error {
	if cfg.flows < 1 || cfg.flows > 256 {
		return fmt.Errorf("flows %d outside 1..256 (mux id space)", cfg.flows)
	}
	if cfg.variant != "gbn" && cfg.variant != "sr" {
		return fmt.Errorf("unknown variant %q (want gbn or sr)", cfg.variant)
	}
	if cfg.window < 1 {
		cfg.window = 32
	}
	node, err := rtnet.Listen("0.0.0.0:0", rtnet.Config{Shards: cfg.shards, Faults: cfg.faults})
	if err != nil {
		return err
	}
	defer node.Close()
	peer, err := node.Dial(cfg.server)
	if err != nil {
		return err
	}
	fcfg := arq.FlowConfig{Window: cfg.window, RTO: cfg.rto, MaxRetries: cfg.retries, Adaptive: cfg.adaptive}
	attach := arq.AttachGBNSender
	if cfg.variant == "sr" {
		attach = arq.AttachSRSender
	}

	type flowRun struct {
		send *arq.WindowSender
		done chan struct{}
		dur  time.Duration
		err  error
	}
	runs := make([]flowRun, cfg.flows)
	wall := time.Now()
	for id := 0; id < cfg.flows; id++ {
		id := id
		f, err := node.Flow(byte(id))
		if err != nil {
			return err
		}
		runs[id].done = make(chan struct{})
		start := time.Now()
		payloads := harness.DistinctPayloads(id*7, cfg.payloads, cfg.size)
		var aerr error
		err = f.Do(func(rt netsim.Runtime, port netsim.Port) {
			// The hook runs inside the shard loop at actual completion,
			// so the duration is the flow's own finish time — not the
			// time the sequential wait loop below got around to it.
			onDone := func() {
				runs[id].dur = time.Since(start)
				close(runs[id].done)
			}
			if !cfg.session {
				runs[id].send, aerr = attach(rt, port, peer, fcfg, payloads, onDone)
				return
			}
			// Session mode: complete the cookie handshake first, then
			// attach the sender to the session's data port so every
			// payload rides inside the established connection; tear the
			// connection down (FIN/FIN-ACK) once the transfer is acked.
			var cli *session.Client
			cli, aerr = session.Connect(rt, port, peer, session.ClientConfig{
				RTO:            cfg.rto,
				Adaptive:       cfg.adaptive,
				MaxRetries:     cfg.retries,
				HeartbeatEvery: time.Second,
				OnEstablished: func() {
					finish := func() { cli.Close(); onDone() }
					var err2 error
					runs[id].send, err2 = attach(rt, cli.DataPort(), peer, fcfg, payloads, finish)
					if err2 != nil {
						runs[id].err = err2
						close(runs[id].done)
					}
				},
				OnDown: func(err error) {
					if runs[id].dur == 0 && runs[id].err == nil {
						runs[id].err = fmt.Errorf("session ended before transfer: %w", err)
						close(runs[id].done)
					}
				},
			})
		})
		if err != nil {
			return err
		}
		if aerr != nil {
			return aerr
		}
	}

	for id := range runs {
		select {
		case <-runs[id].done:
		case <-time.After(2 * time.Minute):
			return fmt.Errorf("flow %d: transfer did not finish within 2m", id)
		}
	}
	elapsed := time.Since(wall)

	// Group per client shard so Jain fairness is computed over flows
	// that shared a worker loop, mirroring the simulated harness. The
	// node applied the shard-count default, so ask it, and drop groups
	// no flow landed in (fairness over an empty group is meaningless).
	nShards := node.Shards()
	perShard := make([][]harness.FlowResult, nShards)
	flowBytes := cfg.payloads * cfg.size
	for id := range runs {
		if runs[id].err != nil {
			return fmt.Errorf("flow %d: %w", id, runs[id].err)
		}
		if err := runs[id].send.Err(); err != nil {
			return err
		}
		r := runs[id].send.Result()
		si := id % nShards
		bytes := 0
		if r.OK {
			bytes = flowBytes // every payload acked end-to-end
		}
		perShard[si] = append(perShard[si], harness.FlowResult{
			Shard: si, Flow: id, OK: r.OK, Duration: runs[id].dur,
			Bytes: bytes, PacketsSent: r.PacketsSent, Retransmits: r.Retransmits,
		})
	}
	grouped := perShard[:0]
	for _, g := range perShard {
		if len(g) > 0 {
			grouped = append(grouped, g)
		}
	}
	rep := harness.Aggregate(grouped)

	gso, gro := node.Offloads()
	fmt.Fprintf(out, "real-network %s transfer to %s (real clock, not virtual)\n", cfg.variant, peer)
	fmt.Fprintf(out, "  client runtime: shards=%d sockets=%d gso=%v gro=%v\n", node.Shards(), node.Sockets(), gso, gro)
	fmt.Fprintf(out, "  flows: %d (%d ok), window %d, %d x %dB payloads each\n",
		rep.Flows, rep.OKFlows, cfg.window, cfg.payloads, cfg.size)
	fmt.Fprintf(out, "  packets sent: %d (retransmits %d)\n", rep.PacketsSent, rep.Retransmits)
	fmt.Fprintf(out, "  wall time: %s; mean flow duration: %.1fms\n", elapsed.Round(time.Millisecond), rep.Duration.Mean()*1000)
	fmt.Fprintf(out, "  goodput/flow: %.0f B/s mean; aggregate: %.0f B/s\n",
		rep.Goodput.Mean(), float64(rep.OKFlows*flowBytes)/elapsed.Seconds())
	fmt.Fprintf(out, "  fairness (Jain, per shard): %.3f\n", rep.Fairness.Mean())
	fmt.Fprintf(out, "  client socket: header_drops=%d send_errs=%d\n", node.Drops(), node.SendErrors())
	if cfg.stats {
		return node.Obs().Snapshot().WriteJSON(out)
	}
	return nil
}
