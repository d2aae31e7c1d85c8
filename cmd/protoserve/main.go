// Command protoserve is the deployment face of the reproduction: it
// serves the DSL-compiled ARQ protocols over a real UDP socket. Every
// logical flow that contacts it gets its own receiver engine — the same
// go-back-N / selective-repeat engines the simulator runs — spawned on
// first contact inside the owning shard's event loop.
//
//	protoserve -listen 127.0.0.1:9000 -variant gbn -window 32
//
// Pair it with `protosim -connect` (the client mode) for an end-to-end
// transfer over loopback; see the README quickstart.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "protoserve:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("protoserve", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:9000", "UDP address to listen on")
		variant  = fs.String("variant", "gbn", "ARQ variant to accept: gbn or sr")
		window   = fs.Int("window", 32, "receive window (must match the client's for sr)")
		shards   = fs.Int("shards", 0, "worker event loops, one SO_REUSEPORT socket each where supported (0 = min(GOMAXPROCS, 4))")
		single   = fs.Bool("singlesocket", false, "force one shared socket (disable per-shard SO_REUSEPORT sockets)")
		stats    = fs.Duration("stats", 5*time.Second, "stats print interval (0 = silent)")
		httpAddr = fs.String("http", "", "serve /metrics, /stats.json and /trace on this TCP address (empty = off)")
		duration = fs.Duration("duration", 0, "serve for this long then exit (0 = until interrupted)")
		drainTO  = fs.Duration("drain-timeout", 0, "on shutdown, lame-duck and wait up to this long for in-flight flows to finish (0 = close immediately)")
		sess     = fs.Bool("session", false, "gate every flow behind the connection lifecycle: stateless-cookie handshake, heartbeat liveness, FIN teardown")
		stateDir = fs.String("state-dir", "", "with -session: append per-flow snapshots here and resume sessions from it after a restart")
		beat     = fs.Duration("heartbeat", time.Second, "with -session: liveness sweep interval (peers reaped after 3 silent sweeps)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *variant != "gbn" && *variant != "sr" {
		return fmt.Errorf("unknown variant %q (want gbn or sr)", *variant)
	}

	node, err := rtnet.Listen(*listen, rtnet.Config{Shards: *shards, SingleSocket: *single})
	if err != nil {
		return err
	}
	defer node.Close()

	// Flow/peer/byte counters are written from shard loops and read by
	// the stats printer: atomics, nothing shared beyond them.
	// frameBytes sums len(data) of every frame a flow handler receives:
	// the ARQ header, retransmissions and duplicates included.
	var flows, frames, frameBytes, failed atomic.Uint64
	cfg := arq.FlowConfig{Window: *window}
	newReceiver := arq.NewGBNReceiver
	if *variant == "sr" {
		newReceiver = func(port netsim.Port, peer netsim.Addr) (*arq.WindowReceiver, error) {
			return arq.NewSRReceiver(port, peer, cfg)
		}
	}
	// handle counts each datagram, then feeds it to r. A receiver whose
	// ack encode or send fails stops for good (r.Err names the cause);
	// it is counted once, as the datagram that stopped it returns, and
	// drops everything after.
	handle := func(r *arq.WindowReceiver) func(netsim.Addr, []byte) {
		return func(from netsim.Addr, data []byte) {
			frames.Add(1)
			frameBytes.Add(uint64(len(data)))
			if r.Err() != nil {
				return
			}
			r.OnDatagram(from, data)
			if r.Err() != nil {
				failed.Add(1)
			}
		}
	}
	if *sess {
		if *stateDir != "" {
			if err := os.MkdirAll(*stateDir, 0o755); err != nil {
				return err
			}
		}
		err = node.ServeSession(rtnet.SessionConfig{
			StateDir:       *stateDir,
			HeartbeatEvery: *beat,
		}, func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte, resume *session.Resume) *session.Engine {
			r, err := newReceiver(port, peer)
			if err != nil {
				return nil
			}
			if resume != nil {
				r.SeedExpect(resume.Expect)
			}
			flows.Add(1)
			return &session.Engine{Handle: handle(r), Progress: r.Expect}
		})
	} else {
		if *stateDir != "" {
			return fmt.Errorf("-state-dir requires -session")
		}
		err = node.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
			r, err := newReceiver(port, peer)
			if err != nil {
				return nil
			}
			flows.Add(1)
			return handle(r)
		})
	}
	if err != nil {
		return err
	}

	gso, gro := node.Offloads()
	mode := "receivers"
	if *sess {
		mode = "session-gated receivers"
	}
	fmt.Fprintf(out, "protoserve: %s %s on udp://%s (shards=%d sockets=%d gso=%v gro=%v; ctrl-c to stop)\n",
		*variant, mode, node.Addr(), node.Shards(), node.Sockets(), gso, gro)

	// Stats endpoints snapshot the per-shard atomics without stopping the
	// shard loops; the HTTP server rides its own goroutines. The bound
	// address is printed so tests (and humans using ":0") can find it.
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		handler := obs.Handler(node.Obs(), func() map[string]uint64 {
			return map[string]uint64{
				"flows":          flows.Load(),
				"flow_frames":    frames.Load(),
				"frame_bytes":    frameBytes.Load(),
				"engines_failed": failed.Load(),
			}
		})
		srv := &http.Server{Handler: handler}
		defer srv.Close()
		go func() { _ = srv.Serve(ln) }()
		fmt.Fprintf(out, "protoserve: stats on http://%s/metrics\n", ln.Addr())
	}

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	defer signal.Stop(interrupt)
	var expire <-chan time.Time
	if *duration > 0 {
		expire = time.After(*duration)
	}
	var tick <-chan time.Time
	if *stats > 0 {
		tk := time.NewTicker(*stats)
		defer tk.Stop()
		tick = tk.C
	}
	// drain lame-ducks the node before the deferred Close: established
	// flows finish, new peers see loss (drop_draining). A failed drain is
	// reported but not fatal — Close still reclaims everything.
	drain := func(reason string) {
		fmt.Fprintf(out, "protoserve: %s; flows=%d frames=%d frame_bytes=%d engines_failed=%d\n",
			reason, flows.Load(), frames.Load(), frameBytes.Load(), failed.Load())
		if *drainTO <= 0 {
			return
		}
		fmt.Fprintf(out, "protoserve: draining (up to %s)...\n", *drainTO)
		if err := node.Drain(*drainTO); err != nil {
			fmt.Fprintf(out, "protoserve: drain: %v (closing anyway)\n", err)
			return
		}
		fmt.Fprintln(out, "protoserve: drained; closing")
	}
	for {
		select {
		case <-tick:
			fmt.Fprintf(out, "protoserve: flows=%d frames=%d frame_bytes=%d engines_failed=%d header_drops=%d send_errs=%d\n",
				flows.Load(), frames.Load(), frameBytes.Load(), failed.Load(), node.Drops(), node.SendErrors())
		case <-interrupt:
			drain("interrupted")
			return nil
		case <-expire:
			drain("done")
			return nil
		}
	}
}
