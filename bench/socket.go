package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/harness"
	"protodsl/internal/metrics"
	"protodsl/internal/netsim"
	"protodsl/internal/obs"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
)

// The real-socket workloads run a server rtnet.Node and a client
// rtnet.Node in this process over the host's loopback interface (not a
// link), both with the zero rtnet.Config so they measure what users
// get. Senders live inside the client's shard loops and are closed
// loops by construction: a flow sends its next packet only when an ack
// frees a window slot.

const (
	socketRTO     = 100 * time.Millisecond
	socketRetries = 30
	// roundDeadline bounds one round: a flow still unfinished then is a
	// failed op, not a hang (the contract caps a whole run at 180 s, so
	// the issue's 2-minute per-flow deadline is shortened).
	roundDeadline = 30 * time.Second
)

// receiver is what both ARQ receiver halves offer.
type receiver interface {
	OnDatagram(netsim.Addr, []byte)
	Delivered() [][]byte
	Expect() uint64
}

func newReceiver(variant string, port netsim.Port, peer netsim.Addr, window int) (receiver, error) {
	if variant == "sr" {
		return arq.NewSRReceiver(port, peer, arq.FlowConfig{Window: window})
	}
	return arq.NewGBNReceiver(port, peer)
}

// senderResult reads a finished sender's outcome; call it inside the
// owning shard loop.
type senderResult func() (ok bool, sent, retrans int, err error)

func attachSender(variant string, rt netsim.Runtime, port netsim.Port, peer netsim.Addr, window int, payloads [][]byte, onDone func()) (senderResult, error) {
	cfg := arq.FlowConfig{Window: window, RTO: socketRTO, MaxRetries: socketRetries}
	if variant == "sr" {
		s, err := arq.AttachSRSender(rt, port, peer, cfg, payloads, onDone)
		if err != nil {
			return nil, err
		}
		return func() (bool, int, int, error) {
			r := s.Result()
			return r.OK, r.PacketsSent, r.Retransmits, s.Err()
		}, nil
	}
	s, err := arq.AttachGBNSender(rt, port, peer, cfg, payloads, onDone)
	if err != nil {
		return nil, err
	}
	return func() (bool, int, int, error) {
		r := s.Result()
		return r.OK, r.PacketsSent, r.Retransmits, s.Err()
	}, nil
}

// tracedReceiver builds a receiver behind the tracing wrappers (or bare
// when b is nil) and returns it with the handler the server installs.
func tracedReceiver(b *spanBuf, req uint32, variant string, port netsim.Port, peer netsim.Addr, window int) (receiver, func(netsim.Addr, []byte)) {
	if b == nil {
		r, err := newReceiver(variant, port, peer, window)
		if err != nil {
			return nil, nil
		}
		return r, r.OnDatagram
	}
	tp := &tracedPort{inner: port, buf: b, req: req, handler: spRecvDatagram}
	idx := b.begin(spNewEngine, req)
	r, err := newReceiver(variant, tp, peer, window)
	b.end(idx)
	if err != nil {
		return nil, nil
	}
	return r, tp.wrapHandler(r.OnDatagram)
}

// tracedSender attaches a sender behind the tracing wrappers (or bare
// when b is nil). port is the flow port, or the session's data port
// over an already traced flow port (passSend).
func tracedSender(b *spanBuf, req uint32, passSend bool, variant string, rt netsim.Runtime, port netsim.Port, peer netsim.Addr, window int, payloads [][]byte, onDone func()) (senderResult, error) {
	if b == nil {
		return attachSender(variant, rt, port, peer, window, payloads, onDone)
	}
	trt := &tracedRuntime{inner: rt, buf: b, req: req, timer: spSenderTimer, post: spSenderPump}
	tp := &tracedPort{inner: port, buf: b, req: req, handler: spSenderAck, passSend: passSend}
	idx := b.begin(spNewEngine, req)
	res, err := attachSender(variant, trt, tp, peer, window, payloads, onDone)
	b.end(idx)
	return res, err
}

// checkDelivery compares what a receiver delivered with what the sender
// was given, byte for byte.
func checkDelivery(got, want [][]byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("delivered %d payloads, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Errorf("payload %d differs from what was sent", i)
		}
	}
	return nil
}

// flowOutcome is one flow's (or session's) raw result, before checking.
type flowOutcome struct {
	done      bool // onDone ran before the deadline
	ok        bool // the sender reports every payload acked
	err       error
	dur       time.Duration
	sent      int
	retrans   int
	delivered [][]byte // read inside the receiver's shard loop
}

// scoreFlows turns raw outcomes into the round's op accounting: a flow
// counts only when it finished, the sender says OK and the receiver
// holds exactly the bytes that were sent.
func scoreFlows(rs *roundStat, flows []flowOutcome, want func(id int) [][]byte) {
	var goodputs []float64
	for id := range flows {
		f := &flows[id]
		rs.ops++
		rs.attempts += f.sent
		var why error
		switch {
		case !f.done:
			why = fmt.Errorf("not finished within %s", roundDeadline)
		case f.err != nil:
			why = f.err
		case !f.ok:
			why = fmt.Errorf("sender gave up (retries exhausted)")
		default:
			why = checkDelivery(f.delivered, want(id))
		}
		if why != nil {
			rs.failed++
			if len(rs.failures) < 4 {
				rs.failures = append(rs.failures, fmt.Sprintf("flow %d: %v", id, why))
			}
			continue
		}
		n := 0
		for _, p := range f.delivered {
			n += len(p)
		}
		rs.items += len(f.delivered)
		rs.payloadBytes += n
		rs.opMs = append(rs.opMs, float64(f.dur)/1e6)
		goodputs = append(goodputs, float64(n)/f.dur.Seconds())
	}
	rs.jain = metrics.JainFairness(goodputs)
}

// nodeCounts reads the obs totals the per-layer table uses.
func nodeCounts(n *rtnet.Node) counts {
	st := n.Obs()
	var c counts
	c.n[cFramesIn] = st.Total(obs.FramesIn)
	c.n[cFramesOut] = st.Total(obs.FramesOut)
	c.n[cSheds] = st.Total(obs.Sheds)
	for _, d := range []obs.Counter{obs.DropBadHeader, obs.DropOversize, obs.DropBadSource,
		obs.DropUnknownFlow, obs.DropPeerLimit, obs.DropDraining,
		obs.DropSendOversize, obs.DropSendFamily, obs.DropSendError} {
		c.n[cDrops] += st.Total(d)
	}
	c.n[cGsoBursts] = st.Total(obs.GSOBursts)
	c.n[cGsoSegs] = st.Total(obs.GSOSegments)
	c.n[cGroBundles] = st.Total(obs.GROBundles)
	c.n[cGroSegs] = st.Total(obs.GROSegments)
	c.n[cRetransmits] = st.Total(obs.Retransmits)
	c.n[cTimeouts] = st.Total(obs.Timeouts)
	c.n[cHandshakesOK] = st.Total(obs.HandshakesOK)
	c.n[cDropNoSession] = st.Total(obs.DropNoSession)
	return c
}

// rttBuckets copies a node's RTT histogram (summed over shards).
func rttBuckets(n *rtnet.Node, into *[obs.HistBuckets]uint64) {
	st := n.Obs()
	for s := 0; s < st.NumShards(); s++ {
		h := st.Shard(s).RTT()
		for i := range into {
			into[i] += h.Bucket(i)
		}
	}
}

func reqID(round, flow int) uint32 { return uint32(round)<<8 | uint32(flow) }

// shardBufs returns one span buffer per shard of a node (nil when
// untraced). Flow id mod shards picks the owner, as in rtnet.
func shardBufs(tr *tracer, role string, shards int) []*spanBuf {
	if tr == nil {
		return nil
	}
	bufs := make([]*spanBuf, shards)
	for i := range bufs {
		bufs[i] = tr.buf(fmt.Sprintf("%s/%d", role, i))
	}
	return bufs
}

func pick(bufs []*spanBuf, flow int) *spanBuf {
	if bufs == nil {
		return nil
	}
	return bufs[flow%len(bufs)]
}

// noteNode records what a node actually got from this host: the shard
// and socket counts after defaulting, and the offloads as probed.
func (e *env) noteNode(n *rtnet.Node) {
	e.shards, e.sockets = n.Shards(), n.Sockets()
	e.gso, e.gro = n.Offloads()
}

// transferWL is bulk64_gbn and small8_sr: flows concurrent transfers
// without a session layer, fresh server and client nodes every round.
type transferWL struct {
	variant                      string
	flows, window, perFlow, size int
	sample                       uint64
	payloads                     [][][]byte // per flow
}

func (w *transferWL) payloadSize() int { return w.size }
func (w *transferWL) sampleN() uint64  { return w.sample }
func (w *transferWL) teardown()        { w.payloads = nil }

func (w *transferWL) setup(e *env) error {
	if e.smoke {
		w.perFlow = min(w.perFlow, 40)
		w.flows = min(w.flows, 16)
	}
	w.payloads = make([][][]byte, w.flows)
	for id := range w.payloads {
		w.payloads[id] = harness.DistinctPayloads(int(e.seed)+id*7, w.perFlow, w.size)
	}
	rs, err := w.round(e, -1, nil)
	if err != nil {
		return err
	}
	if rs.failed > 0 {
		return fmt.Errorf("warm-up round: %d of %d flows failed: %v", rs.failed, rs.ops, rs.failures)
	}
	return nil
}

func (w *transferWL) round(e *env, i int, tr *tracer) (roundStat, error) {
	flows, rs, err := w.transfer(e, i, tr)
	if err != nil {
		return rs, err
	}
	scoreFlows(&rs, flows, func(id int) [][]byte { return w.payloads[id] })
	return rs, nil
}

// transfer runs one round and returns the raw per-flow outcomes, not
// yet checked, with the round's times and both nodes' counters.
func (w *transferWL) transfer(e *env, round int, tr *tracer) ([]flowOutcome, roundStat, error) {
	var rs roundStat
	srv, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{})
	if err != nil {
		return nil, rs, err
	}
	defer srv.Close()
	cli, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{})
	if err != nil {
		return nil, rs, err
	}
	defer cli.Close()
	e.noteNode(srv)
	sbufs := shardBufs(tr, "server", srv.Shards())
	cbufs := shardBufs(tr, "client", cli.Shards())

	// recvs[flow] is written by the shard that owns flow (accept runs in
	// its loop) and read back through srv.Do on the same loop.
	var recvs [256]receiver
	err = srv.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
		r, h := tracedReceiver(pick(sbufs, int(flow)), reqID(round, int(flow)), w.variant, port, peer, w.window)
		if recvs[flow] == nil {
			recvs[flow] = r
		}
		return h
	})
	if err != nil {
		return nil, rs, err
	}
	peer, err := cli.Dial(string(srv.Addr()))
	if err != nil {
		return nil, rs, err
	}

	flows := make([]flowOutcome, w.flows)
	results := make([]senderResult, w.flows)
	done := make(chan int, w.flows) // one send per flow: onDone never blocks a shard loop
	cpu0, t0 := cpuTime(), time.Now()
	for id := 0; id < w.flows; id++ {
		f, err := cli.Flow(byte(id))
		if err != nil {
			return nil, rs, err
		}
		var aerr error
		start := time.Now()
		err = f.Do(func(rt netsim.Runtime, port netsim.Port) {
			results[id], aerr = tracedSender(pick(cbufs, id), reqID(round, id), false, w.variant, rt, port, peer, w.window, w.payloads[id], func() {
				flows[id].dur = time.Since(start)
				done <- id
			})
		})
		if err != nil {
			return nil, rs, err
		}
		if aerr != nil {
			return nil, rs, aerr
		}
	}
	deadline := time.NewTimer(roundDeadline)
	defer deadline.Stop()
wait:
	for n := 0; n < w.flows; n++ {
		select {
		case id := <-done:
			flows[id].done = true
		case <-deadline.C:
			break wait
		}
	}
	rs.wall, rs.cpu = time.Since(t0), cpuTime()-cpu0

	for id := range flows {
		f := &flows[id]
		if err := cli.Do(byte(id), func() { f.ok, f.sent, f.retrans, f.err = results[id]() }); err != nil {
			return nil, rs, err
		}
		if err := srv.Do(byte(id), func() {
			if r := recvs[id]; r != nil {
				f.delivered = r.Delivered()
			}
		}); err != nil {
			return nil, rs, err
		}
	}
	srvC := nodeCounts(srv)
	rs.counts = nodeCounts(cli)
	rttBuckets(cli, &rs.counts.rtt)
	rs.counts.add(&srvC)
	return flows, rs, nil
}

// churnWL is churn_session: one long-lived server with ServeSession and
// a state directory; every round a fresh client node opens sessions
// sessions, slots at a time, each a cookie handshake, a short
// selective-repeat transfer and a FIN. The next session starts only
// when a slot completes.
type churnWL struct {
	sessions, slots, window, perFlow, size int
	payloads                               [][][]byte // per flow id
	srv                                    *rtnet.Node
	stateDir                               string
	seed                                   int64
	// cur is the round the server's accept callback records receivers
	// for; engines for any other peer (a straggler of an earlier round)
	// are built but not recorded.
	cur atomic.Pointer[churnRound]
}

type churnRound struct {
	round int
	peer  netsim.Addr
	recvs [256]receiver // slot f written by the shard owning flow f
	bufs  []*spanBuf
}

func (w *churnWL) payloadSize() int { return w.size }
func (w *churnWL) sampleN() uint64  { return 16 }

func (w *churnWL) setup(e *env) error {
	if e.smoke {
		w.sessions = 32
	}
	w.seed = e.seed
	w.payloads = make([][][]byte, w.sessions)
	for id := range w.payloads {
		w.payloads[id] = harness.DistinctPayloads(int(e.seed)+id*7, w.perFlow, w.size)
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.out, "session-state-")
	if err != nil {
		return err
	}
	w.stateDir = dir
	srv, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{})
	if err != nil {
		return err
	}
	w.srv = srv
	e.noteNode(srv)
	err = srv.ServeSession(rtnet.SessionConfig{StateDir: dir}, func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte, resume *session.Resume) *session.Engine {
		var b *spanBuf
		cr := w.cur.Load()
		record := cr != nil && cr.peer == peer && cr.recvs[flow] == nil
		if record {
			b = pick(cr.bufs, int(flow))
		}
		round := 0
		if cr != nil {
			round = cr.round
		}
		r, h := tracedReceiver(b, reqID(round, int(flow)), "sr", port, peer, w.window)
		if r == nil {
			return nil
		}
		if record {
			cr.recvs[flow] = r
		}
		return &session.Engine{Handle: h, Progress: r.Expect}
	})
	if err != nil {
		return err
	}
	// Warm-up: a few sessions one at a time. A full round would put the
	// workload's own RTO stalls (a shed frame costs a session 100 ms or
	// more) into setup_s and make it bimodal.
	rs, err := w.run(-1, nil, min(16, w.sessions), 1)
	if err != nil {
		return err
	}
	if rs.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d sessions failed: %v", rs.failed, rs.ops, rs.failures)
	}
	return nil
}

func (w *churnWL) teardown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.stateDir != "" {
		os.RemoveAll(w.stateDir)
		w.stateDir = ""
	}
	w.payloads = nil
}

func (w *churnWL) stateLogBytes() uint64 {
	var n uint64
	files, _ := filepath.Glob(filepath.Join(w.stateDir, "*.log"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			n += uint64(fi.Size())
		}
	}
	return n
}

func (w *churnWL) round(e *env, i int, tr *tracer) (roundStat, error) {
	return w.run(i, tr, w.sessions, w.slots)
}

// run opens sessions sessions, slots at a time, from a fresh client
// node.
func (w *churnWL) run(i int, tr *tracer, sessions, slots int) (roundStat, error) {
	cli, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{})
	if err != nil {
		return roundStat{}, err
	}
	defer cli.Close()
	peer, err := cli.Dial(string(w.srv.Addr()))
	if err != nil {
		return roundStat{}, err
	}
	cr := &churnRound{round: i, peer: cli.Addr(), bufs: shardBufs(tr, "server", w.srv.Shards())}
	w.cur.Store(cr)
	cbufs := shardBufs(tr, "client", cli.Shards())
	srvBefore, logBefore := nodeCounts(w.srv), w.stateLogBytes()

	flows := make([]flowOutcome, sessions)
	results := make([]senderResult, sessions)
	done := make(chan int, 2*sessions) // at most two sends per session (finish, or attach error / OnDown)
	start := func(id int) error {
		f, err := cli.Flow(byte(id))
		if err != nil {
			return err
		}
		var cerr error
		b, req := pick(cbufs, id), reqID(i, id)
		t0 := time.Now()
		err = f.Do(func(rt netsim.Runtime, port netsim.Port) {
			srt, sport := rt, port
			if b != nil {
				srt = &tracedRuntime{inner: rt, buf: b, req: req, timer: spClientTimer, post: spClientTimer}
				sport = &tracedPort{inner: port, buf: b, req: req, handler: spClientFrame}
			}
			var c *session.Client
			idx := int32(-1)
			if b != nil {
				idx = b.begin(spConnect, req)
			}
			c, cerr = session.Connect(srt, sport, peer, session.ClientConfig{
				Nonce:          uint32(w.seed)*31 + uint32(i)*257 + uint32(id),
				RTO:            socketRTO,
				MaxRetries:     socketRetries,
				HeartbeatEvery: time.Second,
				OnEstablished: func() {
					if b != nil {
						b.wait(spHandshake, req, t0, time.Now())
					}
					var aerr error
					results[id], aerr = tracedSender(b, req, true, "sr", rt, c.DataPort(), peer, w.window, w.payloads[id], func() {
						c.Close()
						flows[id].dur = time.Since(t0)
						done <- id
					})
					if aerr != nil {
						flows[id].err = aerr
						done <- id
					}
				},
				OnDown: func(err error) {
					if flows[id].dur == 0 && flows[id].err == nil {
						flows[id].err = fmt.Errorf("session ended before transfer: %v", err)
						done <- id
					}
				},
			})
			if b != nil {
				b.end(idx)
			}
		})
		if err != nil {
			return err
		}
		return cerr
	}

	cpu0, t0 := cpuTime(), time.Now()
	next := 0
	for ; next < slots && next < sessions; next++ {
		if err := start(next); err != nil {
			return roundStat{}, err
		}
	}
	deadline := time.NewTimer(roundDeadline)
	defer deadline.Stop()
wait:
	for n := 0; n < sessions; n++ {
		select {
		case id := <-done:
			flows[id].done = true
			if next < sessions {
				if err := start(next); err != nil {
					return roundStat{}, err
				}
				next++
			}
		case <-deadline.C:
			break wait
		}
	}
	rs := roundStat{wall: time.Since(t0), cpu: cpuTime() - cpu0}

	for id := 0; id < next; id++ {
		f := &flows[id]
		if err := cli.Do(byte(id), func() {
			if results[id] != nil {
				var serr error
				f.ok, f.sent, f.retrans, serr = results[id]()
				if f.err == nil {
					f.err = serr
				}
			} else if f.err == nil {
				f.err = fmt.Errorf("handshake did not complete")
			}
		}); err != nil {
			return roundStat{}, err
		}
		if err := w.srv.Do(byte(id), func() {
			if r := cr.recvs[id]; r != nil {
				f.delivered = r.Delivered()
			}
		}); err != nil {
			return roundStat{}, err
		}
	}
	scoreFlows(&rs, flows, func(id int) [][]byte { return w.payloads[id] })
	rs.jain = 0 // sessions run 8 at a time, not side by side: fairness is not defined
	for _, f := range flows {
		if f.dur >= socketRTO/2 {
			rs.counts.n[cStalled]++
		}
	}
	cliC := nodeCounts(cli)
	rttBuckets(cli, &cliC.rtt)
	rs.counts.add(&cliC)
	srvC := nodeCounts(w.srv).sub(srvBefore)
	rs.counts.add(&srvC)
	rs.counts.n[cStateLogBytes] = w.stateLogBytes() - logBefore
	return rs, nil
}
