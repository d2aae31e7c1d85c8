package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/harness"
	"protodsl/internal/netsim"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
)

// syncBuffer lets the test read protoserve's output while run() is
// still writing it from another goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`udp://([0-9.:\[\]]+:[0-9]+)`)

// TestServeExitsAfterDuration: protoserve comes up on an ephemeral
// port, announces its address, and exits when -duration elapses.
func TestServeExitsAfterDuration(t *testing.T) {
	var out syncBuffer
	errc := make(chan error, 1)
	go func() {
		errc <- run([]string{"-listen", "127.0.0.1:0", "-duration", "300ms", "-stats", "0"}, &out)
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("protoserve did not exit after -duration")
	}
	s := out.String()
	if !listenLine.MatchString(s) {
		t.Fatalf("no listen address announced in output:\n%s", s)
	}
	if !strings.Contains(s, "done;") || !strings.Contains(s, "frame_bytes=0 ") || !strings.Contains(s, "engines_failed=0") {
		t.Fatalf("no shutdown summary in output:\n%s", s)
	}
}

func TestRejectsUnknownVariant(t *testing.T) {
	var out syncBuffer
	if err := run([]string{"-variant", "tcp"}, &out); err == nil {
		t.Fatal("unknown variant accepted")
	}
}

// waitMatch polls the buffer until re's first capture group appears.
func waitMatch(t *testing.T, b *syncBuffer, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := re.FindStringSubmatch(b.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("output never matched %v; got:\n%s", re, b.String())
	return ""
}

// statsJSON mirrors the fields of obs.Snapshot the test asserts on.
type statsJSON struct {
	Totals       map[string]uint64 `json:"totals"`
	TraceWritten uint64            `json:"trace_written"`
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
}

// TestSessionStatsEndpoints boots protoserve in -session mode with a
// state directory and runs handshake-gated transfers against it: every
// flow completes the cookie handshake before data flows, tears down
// with FIN/FIN-ACK after, and the lifecycle counters (DESIGN.md §14)
// surface on /stats.json and /metrics.
func TestSessionStatsEndpoints(t *testing.T) {
	const (
		nFlows    = 8
		nPayloads = 8
		size      = 256
	)
	stateDir := t.TempDir() + "/state"

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-session", "-state-dir", stateDir, "-heartbeat", "250ms",
			"-variant", "gbn", "-window", "32", "-stats", "0", "-duration", "2m",
		}, &out)
	}()
	udpAddr := waitMatch(t, &out, regexp.MustCompile(`session-gated receivers on udp://([^ ]+) `))
	httpBase := "http://" + waitMatch(t, &out, regexp.MustCompile(`stats on http://([^/]+)/metrics`))
	defer func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGINT)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("protoserve run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("protoserve did not exit after interrupt")
		}
	}()

	client, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{Shards: 1})
	if err != nil {
		t.Fatalf("client listen: %v", err)
	}
	defer client.Close()
	peer, err := client.Dial(udpAddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	fcfg := arq.FlowConfig{Window: 32, RTO: 100 * time.Millisecond, MaxRetries: 50}
	flowDone := make([]chan struct{}, nFlows)
	flowErr := make([]error, nFlows)
	for id := 0; id < nFlows; id++ {
		id := id
		f, err := client.Flow(byte(id))
		if err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
		flowDone[id] = make(chan struct{})
		payloads := harness.DistinctPayloads(id*3, nPayloads, size)
		var aerr error
		err = f.Do(func(rt netsim.Runtime, port netsim.Port) {
			var cli *session.Client
			cli, aerr = session.Connect(rt, port, peer, session.ClientConfig{
				RTO:            100 * time.Millisecond,
				MaxRetries:     50,
				HeartbeatEvery: 250 * time.Millisecond,
				OnEstablished: func() {
					finish := func() { cli.Close(); close(flowDone[id]) }
					if _, err2 := arq.AttachGBNSender(rt, cli.DataPort(), peer, fcfg, payloads, finish); err2 != nil {
						flowErr[id] = err2
						close(flowDone[id])
					}
				},
				OnDown: func(err error) {
					if flowErr[id] == nil {
						select {
						case <-flowDone[id]:
						default:
							flowErr[id] = err
							close(flowDone[id])
						}
					}
				},
			})
		})
		if err != nil {
			t.Fatalf("flow %d attach: %v", id, err)
		}
		if aerr != nil {
			t.Fatalf("flow %d connect: %v", id, aerr)
		}
	}

	for id := range flowDone {
		select {
		case <-flowDone[id]:
			if flowErr[id] != nil {
				t.Fatalf("flow %d: %v", id, flowErr[id])
			}
		case <-time.After(time.Minute):
			t.Fatalf("flow %d did not finish within 1m", id)
		}
	}

	var fin statsJSON
	getJSON(t, httpBase+"/stats.json", &fin)
	if got := fin.Totals["handshakes_ok"]; got < nFlows {
		t.Errorf("server handshakes_ok = %d, want >= %d (one cookie round-trip per flow)", got, nFlows)
	}
	if got, want := fin.Totals["frames_in"], uint64(nFlows*nPayloads); got < want {
		t.Errorf("server frames_in = %d, want >= %d", got, want)
	}
	// No handshake failed, no peer died, no session needed resuming:
	// the failure-path counters must all be zero on a clean run.
	for _, name := range []string{"cookies_rejected", "peer_down", "flows_resumed"} {
		if got := fin.Totals[name]; got != 0 {
			t.Errorf("server %s = %d, want 0 on a clean run", name, got)
		}
	}

	// The same lifecycle counters render on the Prometheus endpoint.
	resp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	if !bytes.Contains(prom, []byte("pdsl_handshakes_ok_total{shard=")) {
		t.Errorf("/metrics missing pdsl_handshakes_ok_total; got:\n%s", prom)
	}

	// Crash recovery left its trail: the state directory holds one
	// append-only log per shard.
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatalf("state dir: %v", err)
	}
	if len(entries) == 0 {
		t.Error("state dir empty; expected per-shard session logs")
	}
}

// TestStatsEndpointsUnderLoad boots a real protoserve (UDP + HTTP), runs
// 64 concurrent go-back-N flows against it over loopback, and checks
// that the live stats endpoints tell a consistent story: counters are
// monotonic across snapshots taken while shard loops are running, and
// the final totals account for every payload the harness reports as
// transferred.
func TestStatsEndpointsUnderLoad(t *testing.T) {
	const (
		nFlows    = 64
		nPayloads = 8
		size      = 256
	)

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0",
			"-variant", "gbn", "-window", "32", "-stats", "0", "-duration", "2m",
		}, &out)
	}()
	udpAddr := waitMatch(t, &out, regexp.MustCompile(`receivers on udp://([^ ]+) `))
	httpBase := "http://" + waitMatch(t, &out, regexp.MustCompile(`stats on http://([^/]+)/metrics`))
	defer func() {
		// run() exits via its interrupt handler; the signal is consumed
		// by its signal.Notify registration, not the test binary's
		// default handler.
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGINT)
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("protoserve run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("protoserve did not exit after interrupt")
		}
	}()

	client, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{Shards: 1})
	if err != nil {
		t.Fatalf("client listen: %v", err)
	}
	defer client.Close()
	peer, err := client.Dial(udpAddr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	fcfg := arq.FlowConfig{Window: 32, RTO: 100 * time.Millisecond, MaxRetries: 50}
	senders := make([]*arq.WindowSender, nFlows)
	flowDone := make([]chan struct{}, nFlows)
	for id := 0; id < nFlows; id++ {
		id := id
		f, err := client.Flow(byte(id))
		if err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
		flowDone[id] = make(chan struct{})
		payloads := harness.DistinctPayloads(id*3, nPayloads, size)
		var aerr error
		err = f.Do(func(rt netsim.Runtime, port netsim.Port) {
			senders[id], aerr = arq.AttachGBNSender(rt, port, peer, fcfg, payloads,
				func() { close(flowDone[id]) })
		})
		if err != nil {
			t.Fatalf("flow %d attach: %v", id, err)
		}
		if aerr != nil {
			t.Fatalf("flow %d sender: %v", id, aerr)
		}
	}

	// Mid-traffic snapshot: taken while shard loops are live, without
	// stopping them.
	var mid statsJSON
	getJSON(t, httpBase+"/stats.json", &mid)

	for id := range flowDone {
		select {
		case <-flowDone[id]:
		case <-time.After(time.Minute):
			t.Fatalf("flow %d did not finish within 1m", id)
		}
	}
	var sentTotal uint64
	for id, s := range senders {
		if err := s.Err(); err != nil {
			t.Fatalf("flow %d: %v", id, err)
		}
		r := s.Result()
		if !r.OK {
			t.Fatalf("flow %d transfer not OK", id)
		}
		sentTotal += uint64(r.PacketsSent)
	}

	var fin statsJSON
	getJSON(t, httpBase+"/stats.json", &fin)

	// Counters only ever move forward.
	for name, v := range mid.Totals {
		if fin.Totals[name] < v {
			t.Errorf("counter %s went backwards: %d -> %d", name, v, fin.Totals[name])
		}
	}

	// Every payload was acked end-to-end, so the server must have
	// delivered at least one data frame per payload, each carrying at
	// least the payload bytes.
	if got, want := fin.Totals["frames_in"], uint64(nFlows*nPayloads); got < want {
		t.Errorf("server frames_in = %d, want >= %d (one per acked payload)", got, want)
	}
	if got, want := fin.Totals["bytes_in"], uint64(nFlows*nPayloads*size); got < want {
		t.Errorf("server bytes_in = %d, want >= %d", got, want)
	}
	// The server acks what it hears: at least one frame out per flow.
	if got := fin.Totals["frames_out"]; got < nFlows {
		t.Errorf("server frames_out = %d, want >= %d", got, nFlows)
	}

	// The client's own stats block must agree exactly with the harness:
	// every engine transmission (including retransmits) went through the
	// shard port exactly once.
	clientSnap := client.Obs().Snapshot()
	if got := clientSnap.Totals["frames_out"]; got != sentTotal {
		t.Errorf("client frames_out = %d, want %d (sum of per-flow PacketsSent)", got, sentTotal)
	}
	// Karn-filtered RTT samples were recorded on the live path.
	if clientSnap.RTT.Count == 0 {
		t.Errorf("client RTT histogram empty after %d acked payloads", nFlows*nPayloads)
	}

	// Prometheus endpoint renders the same counters plus the process
	// gauges the server owns.
	resp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read /metrics: %v", err)
	}
	for _, want := range []string{
		"pdsl_frames_in_total{shard=",
		fmt.Sprintf("pdsl_flows %d\n", nFlows),
		"pdsl_engines_failed 0\n",
	} {
		if !bytes.Contains(prom, []byte(want)) {
			t.Errorf("/metrics missing %q; got:\n%s", want, prom)
		}
	}
	// frame_bytes counts whole frames as the flow handlers receive them:
	// every data frame is the payload plus the 4-byte ARQ header, so it
	// is exactly flow_frames × (size + 4), retransmissions included.
	frameBytes, flowFrames := promValue(t, prom, "pdsl_frame_bytes"), promValue(t, prom, "pdsl_flow_frames")
	if want := flowFrames * (size + 4); frameBytes != want {
		t.Errorf("pdsl_frame_bytes = %d, want pdsl_flow_frames %d × %d = %d", frameBytes, flowFrames, size+4, want)
	}
	if flowFrames < nFlows*nPayloads {
		t.Errorf("pdsl_flow_frames = %d, want >= %d (one per acked payload)", flowFrames, nFlows*nPayloads)
	}
}

// promValue reads an unlabelled sample from Prometheus text output.
func promValue(t *testing.T, prom []byte, name string) uint64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + name + ` ([0-9]+)$`).FindSubmatch(prom)
	if m == nil {
		t.Fatalf("/metrics has no %s sample; got:\n%s", name, prom)
	}
	v, err := strconv.ParseUint(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
