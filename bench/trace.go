package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"protodsl/internal/netsim"
	"protodsl/internal/obs"
)

// Tracing lives entirely in the benchmark: the engines take their
// substrate as netsim.Port / netsim.Runtime interfaces and the servers
// take accept callbacks, so wrappers interposed at those seams see every
// call into a layer without a line of the program changing. One spanBuf
// belongs to one event loop (an rtnet shard, a simulator), which is
// single-goroutine, so recording takes no lock.

// spanKind names one traced call site; spanKinds maps it to the layer
// whose self time it is charged to.
type spanKind uint8

const (
	spPortSend     spanKind = iota // rtnet: Port.Send (mux framing + staging for the next flush)
	spLinkSend                     // netsim: Port.Send (mux framing + link model + delivery scheduling)
	spSenderAck                    // arq: the sender's port handler (one ack)
	spSenderTimer                  // arq: the sender's retransmission-timer callback
	spSenderPump                   // arq: the sender's posted first window
	spRecvDatagram                 // arq: the receiver's OnDatagram (one data packet)
	spNewEngine                    // arq: New*Receiver / Attach*Sender
	spTimerArm                     // timerwheel: Runtime.After
	spTimerCancel                  // timerwheel: Timer.Cancel
	spClientFrame                  // session: the client's port handler (control/data split)
	spClientTimer                  // session: the client's timers (SYN retry, heartbeat, TIME_WAIT)
	spConnect                      // session: session.Connect
	spHandshake                    // session: Connect -> OnEstablished (a wait, not CPU)
	spBuild                        // verify: Build* model construction
	spExplore                      // verify: Explore
	numSpanKinds
)

var spanKinds = [numSpanKinds]struct {
	layer, name string
	wait        bool // elapsed time, not processor time: excluded from the layer budget
}{
	spPortSend:     {layer: "rtnet.stage", name: "port.send"},
	spLinkSend:     {layer: "netsim.send", name: "port.send"},
	spSenderAck:    {layer: "arq.send", name: "sender.on_ack"},
	spSenderTimer:  {layer: "arq.send", name: "sender.on_timeout"},
	spSenderPump:   {layer: "arq.send", name: "sender.pump"},
	spRecvDatagram: {layer: "arq.recv", name: "receiver.on_datagram"},
	spNewEngine:    {layer: "arq.new_engine", name: "new_engine"},
	spTimerArm:     {layer: "timer.arm", name: "runtime.after"},
	spTimerCancel:  {layer: "timer.cancel", name: "timer.cancel"},
	spClientFrame:  {layer: "session", name: "client.on_frame"},
	spClientTimer:  {layer: "session", name: "client.timer"},
	spConnect:      {layer: "session", name: "connect"},
	spHandshake:    {layer: "session", name: "handshake", wait: true},
	spBuild:        {layer: "verify.build", name: "build"},
	spExplore:      {layer: "verify.explore", name: "explore"},
}

// span is one recorded call: times are nanoseconds since the tracer's
// epoch, parent indexes the enclosing span in the same buffer (-1 for a
// root), req packs round<<8 | flow — every span of one flow's transfer
// in one round shares it.
type span struct {
	kind       spanKind
	parent     int32
	req        uint32
	start, end int64
}

// spanBufCap bounds one loop's buffer (2 MiB of spans). Whole call
// trees are sampled 1-in-N at their root so the buffer outlasts the
// run; N is chosen per workload and printed.
const spanBufCap = 1 << 16

// spanBuf is one event loop's preallocated span store.
type spanBuf struct {
	label   string
	epoch   time.Time
	spans   []span
	cur     int32 // innermost open recorded span, -1 when none
	depth   int32 // open wrapper calls, recorded or not
	on      bool  // the current tree is being recorded
	sampleN uint64
	rng     uint64
	// roots counts every top-level call, sampled counts those recorded:
	// their ratio scales sampled self times up to the whole run.
	roots, sampled uint64
	// arms counts every Runtime.After through a tracedRuntime on this
	// loop, sampled or not.
	arms uint64
}

func newSpanBuf(label string, epoch time.Time, sampleN uint64) *spanBuf {
	if sampleN < 1 {
		sampleN = 1
	}
	return &spanBuf{
		label: label, epoch: epoch, sampleN: sampleN, cur: -1,
		spans: make([]span, 0, spanBufCap),
		rng:   0x9e3779b97f4a7c15 ^ uint64(len(label))<<32 ^ uint64(epoch.UnixNano()),
	}
}

// roll decides whether to record the tree starting now: a xorshift draw
// rather than a counter, so the sample cannot lock onto a period of the
// protocol (every W-th packet ends a window).
func (b *spanBuf) roll() bool {
	if b.sampleN == 1 {
		return true
	}
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	return b.rng%b.sampleN == 0
}

// begin opens a span and returns its index, or -1 when the enclosing
// tree is not sampled (or the buffer is full); pass the result to end.
func (b *spanBuf) begin(kind spanKind, req uint32) int32 {
	b.depth++
	if b.depth == 1 {
		b.roots++
		// Leave headroom so a sampled tree is never cut off half-way.
		b.on = len(b.spans) < cap(b.spans)-256 && b.roll()
		if b.on {
			b.sampled++
		}
	}
	if !b.on || len(b.spans) == cap(b.spans) {
		return -1
	}
	idx := int32(len(b.spans))
	b.spans = append(b.spans, span{kind: kind, parent: b.cur, req: req, start: int64(time.Since(b.epoch))})
	b.cur = idx
	return idx
}

func (b *spanBuf) end(idx int32) {
	b.depth--
	if idx < 0 {
		return
	}
	s := &b.spans[idx]
	s.end = int64(time.Since(b.epoch))
	b.cur = s.parent
}

// wait records a completed elapsed-time span (no nesting, never
// sampled away): the handshake, which starts in one callback and ends
// in another.
func (b *spanBuf) wait(kind spanKind, req uint32, start, end time.Time) {
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, span{kind: kind, parent: -1, req: req,
			start: int64(start.Sub(b.epoch)), end: int64(end.Sub(b.epoch))})
	}
}

// tracer owns the span buffers of one traced run.
type tracer struct {
	epoch   time.Time
	sampleN uint64
	bufs    []*spanBuf
	// childCost is what one recorded child span adds to its parent's
	// measured duration beyond the child's own (the clock reads and
	// bookkeeping outside the child's start/end); calibrated once and
	// subtracted when self times are computed.
	childCost int64
}

func newTracer(sampleN uint64) *tracer {
	t := &tracer{epoch: time.Now(), sampleN: sampleN}
	// Calibrate childCost as the median over chunks, so a preemption
	// inside one chunk does not skew it.
	cal := newSpanBuf("calibrate", t.epoch, 1)
	const chunks, n = 16, 256
	var ests []float64
	for c := 0; c < chunks; c++ {
		cal.spans = cal.spans[:0]
		root := cal.begin(spPortSend, 0)
		for i := 0; i < n; i++ {
			cal.end(cal.begin(spPortSend, 0))
		}
		cal.end(root)
		var inner int64
		for _, s := range cal.spans[1:] {
			inner += s.end - s.start
		}
		ests = append(ests, float64((cal.spans[0].end-cal.spans[0].start)-inner)/n)
	}
	t.childCost = int64(median(ests))
	return t
}

// buf returns the buffer for the event loop called label, creating it
// on first use. Rounds run one after another and each closes its nodes
// before the next starts, so "client/0" of successive rounds can share
// one buffer. Call from the goroutine that sets a round up, before the
// loop starts using it.
func (t *tracer) buf(label string) *spanBuf {
	for _, b := range t.bufs {
		if b.label == label {
			return b
		}
	}
	b := newSpanBuf(label, t.epoch, t.sampleN)
	t.bufs = append(t.bufs, b)
	return b
}

// layerCost is one layer's share of a traced run.
type layerCost struct {
	layer  string
	count  float64 // calls, scaled up from the sample
	selfNs float64 // self time, scaled up from the sample
}

// trimShare is the share of each kind's slowest sampled spans left out
// of its mean self time. Spans are wall-clock intervals of a few
// hundred nanoseconds; when the scheduler preempts the loop or a GC
// pause lands inside one it reads milliseconds (4 ms on a 450 ns median
// was observed), and a handful of those would outweigh every honest
// sample. What is trimmed stays in the untraced remainder.
const trimShare = 0.01

// budget folds every buffer into per-layer call counts and self times:
// self = duration - children - calibrated per-child overhead; per
// buffer and kind the mean of all but the slowest trimShare of spans,
// times the number of spans, scaled by the buffer's roots/sampled. Wait
// spans are skipped.
func (t *tracer) budget() []layerCost {
	acc := map[string]*layerCost{}
	for _, b := range t.bufs {
		if b.sampled == 0 {
			continue
		}
		scale := float64(b.roots) / float64(b.sampled)
		child := make([]int64, len(b.spans))
		for i := range b.spans {
			s := &b.spans[i]
			if p := s.parent; p >= 0 {
				child[p] += s.end - s.start + t.childCost
			}
		}
		var selfs [numSpanKinds][]float64
		for i := range b.spans {
			s := &b.spans[i]
			if spanKinds[s.kind].wait {
				continue
			}
			selfs[s.kind] = append(selfs[s.kind], float64(max(s.end-s.start-child[i], 0)))
		}
		for kind, xs := range selfs {
			if len(xs) == 0 {
				continue
			}
			sort.Float64s(xs)
			keep := xs[:len(xs)-int(trimShare*float64(len(xs)))]
			var sum float64
			for _, x := range keep {
				sum += x
			}
			layer := spanKinds[kind].layer
			lc := acc[layer]
			if lc == nil {
				lc = &layerCost{layer: layer}
				acc[layer] = lc
			}
			lc.count += float64(len(xs)) * scale
			lc.selfNs += sum / float64(len(keep)) * float64(len(xs)) * scale
		}
	}
	out := make([]layerCost, 0, len(acc))
	for _, lc := range acc {
		out = append(out, *lc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].layer < out[j].layer })
	return out
}

// waits returns the durations (ns) of every recorded wait span of kind.
func (t *tracer) waits(kind spanKind) []float64 {
	var out []float64
	for _, b := range t.bufs {
		for i := range b.spans {
			if s := &b.spans[i]; s.kind == kind {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

func (t *tracer) recorded() int {
	n := 0
	for _, b := range t.bufs {
		n += len(b.spans)
	}
	return n
}

// write dumps the trace as JSON: a kind table, then per buffer its
// sampling counts and spans as [kind, parent, req, start_ns, end_ns].
func (t *tracer) write(path, workload string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"sample_1_in\":%d,\"child_cost_ns\":%d,\n\"span_fields\":[\"kind\",\"parent\",\"req_round_flow\",\"start_ns\",\"end_ns\"],\n\"kinds\":[", workload, t.sampleN, t.childCost)
	for i, k := range spanKinds {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "{\"layer\":%q,\"name\":%q,\"wait\":%v}", k.layer, k.name, k.wait)
	}
	w.WriteString("],\n\"buffers\":[")
	for bi, b := range t.bufs {
		if bi > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"loop\":%q,\"roots\":%d,\"sampled\":%d,\"spans\":[", b.label, b.roots, b.sampled)
		for i := range b.spans {
			s := &b.spans[i]
			if i > 0 {
				w.WriteByte(',')
			}
			fmt.Fprintf(w, "[%d,%d,%d,%d,%d]", s.kind, s.parent, s.req, s.start, s.end)
		}
		w.WriteString("]}")
	}
	w.WriteString("]}\n")
	return w.Flush()
}

// tracedPort wraps a netsim.Port: Send is timed as a span of kind send
// (unless the inner port is itself a wrapper whose Send is already
// timed), and SetHandler is intercepted so the installed handler runs
// inside a span of kind handler.
type tracedPort struct {
	inner         netsim.Port
	buf           *spanBuf
	req           uint32
	send, handler spanKind
	passSend      bool
}

var _ netsim.Port = (*tracedPort)(nil)

func (p *tracedPort) Addr() netsim.Addr { return p.inner.Addr() }

func (p *tracedPort) Send(to netsim.Addr, data []byte) error {
	if p.passSend {
		return p.inner.Send(to, data)
	}
	idx := p.buf.begin(p.send, p.req)
	err := p.inner.Send(to, data)
	p.buf.end(idx)
	return err
}

func (p *tracedPort) SetHandler(fn func(from netsim.Addr, data []byte)) {
	if fn == nil {
		p.inner.SetHandler(nil)
		return
	}
	p.inner.SetHandler(p.wrapHandler(fn))
}

func (p *tracedPort) wrapHandler(fn func(netsim.Addr, []byte)) func(netsim.Addr, []byte) {
	return func(from netsim.Addr, data []byte) {
		idx := p.buf.begin(p.handler, p.req)
		fn(from, data)
		p.buf.end(idx)
	}
}

// ObsShard forwards the inner port's stats block (as session.dataPort
// does); without it obs.Of would route the engines' counters to the
// discard shard.
func (p *tracedPort) ObsShard() *obs.Shard {
	if src, ok := p.inner.(obs.Source); ok {
		return src.ObsShard()
	}
	return nil
}

// tracedRuntime wraps a netsim.Runtime: After and the returned timer's
// Cancel are timed as timer spans, and timer / posted callbacks run
// inside spans of kind timer / post.
type tracedRuntime struct {
	inner       netsim.Runtime
	buf         *spanBuf
	req         uint32
	timer, post spanKind
}

var _ netsim.Runtime = (*tracedRuntime)(nil)

func (r *tracedRuntime) Now() time.Duration { return r.inner.Now() }

func (r *tracedRuntime) After(d time.Duration, fn func()) netsim.Timer {
	r.buf.arms++
	idx := r.buf.begin(spTimerArm, r.req)
	t := r.inner.After(d, func() {
		idx := r.buf.begin(r.timer, r.req)
		fn()
		r.buf.end(idx)
	})
	r.buf.end(idx)
	return tracedTimer{Timer: t, rt: r}
}

func (r *tracedRuntime) Post(fn func()) {
	r.inner.Post(func() {
		idx := r.buf.begin(r.post, r.req)
		fn()
		r.buf.end(idx)
	})
}

// ObsShard forwards the inner runtime's stats block: the ARQ senders
// and the session client take their counters from obs.Of(runtime).
func (r *tracedRuntime) ObsShard() *obs.Shard {
	if src, ok := r.inner.(obs.Source); ok {
		return src.ObsShard()
	}
	return nil
}

type tracedTimer struct {
	netsim.Timer
	rt *tracedRuntime
}

func (t tracedTimer) Cancel() {
	idx := t.rt.buf.begin(spTimerCancel, t.rt.req)
	t.Timer.Cancel()
	t.rt.buf.end(idx)
}
