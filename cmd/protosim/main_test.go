package main

import (
	"bytes"
	"strings"
	"testing"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
	"protodsl/internal/rtnet"
	"protodsl/internal/session"
)

func TestStopAndWaitRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-payloads", "10", "-size", "32", "-loss", "0.2", "-seed", "3",
		"-rto", "15ms", "-retries", "40",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"stop-and-wait transfer", "ok: true", "delivered: 10/10"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestGoBackNRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-payloads", "20", "-window", "8", "-delay", "10ms", "-loss", "0.05",
		"-rto", "80ms", "-retries", "40",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "go-back-N transfer (window 8)") || !strings.Contains(s, "delivered: 20/20") {
		t.Errorf("output:\n%s", s)
	}
}

func TestBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-window", "not-a-number"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestConnectModeAgainstInProcessServer runs the -connect client path
// against an in-process rtnet server: the cmd-level half of the
// loopback end-to-end demo (cmd/protoserve has the server half).
// TestConnectModeAgainstInProcessServer runs the client against an
// in-process server for each sender shape the client builds: both
// window variants bare, and go-back-N behind the session handshake.
func TestConnectModeAgainstInProcessServer(t *testing.T) {
	for _, tc := range []struct {
		name, variant string
		session       bool
	}{
		{"gbn", "gbn", false},
		{"sr", "sr", false},
		{"gbn-session", "gbn", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			server, err := rtnet.Listen("127.0.0.1:0", rtnet.Config{Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			newReceiver := func(port netsim.Port, peer netsim.Addr) (*arq.WindowReceiver, error) {
				if tc.variant == "sr" {
					return arq.NewSRReceiver(port, peer, arq.FlowConfig{Window: 8})
				}
				return arq.NewGBNReceiver(port, peer)
			}
			if tc.session {
				err = server.ServeSession(rtnet.SessionConfig{}, func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte, _ *session.Resume) *session.Engine {
					r, err := newReceiver(port, peer)
					if err != nil {
						return nil
					}
					return &session.Engine{Handle: r.OnDatagram, Progress: r.Expect}
				})
			} else {
				err = server.Serve(func(rt netsim.Runtime, port netsim.Port, peer netsim.Addr, flow byte) func(netsim.Addr, []byte) {
					r, err := newReceiver(port, peer)
					if err != nil {
						return nil
					}
					return r.OnDatagram
				})
			}
			if err != nil {
				t.Fatal(err)
			}

			args := []string{
				"-connect", string(server.Addr()), "-flows", "8", "-variant", tc.variant,
				"-payloads", "10", "-size", "64", "-window", "8",
				"-rto", "100ms", "-retries", "20",
			}
			if tc.session {
				args = append(args, "-session")
			}
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			s := out.String()
			for _, want := range []string{"real-network " + tc.variant + " transfer", "flows: 8 (8 ok)"} {
				if !strings.Contains(s, want) {
					t.Errorf("output missing %q:\n%s", want, s)
				}
			}
		})
	}
}

func TestConnectRejectsSimOnlyFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-connect", "127.0.0.1:1", "-loss", "0.2"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-loss") {
		t.Fatalf("sim-only flag with -connect not rejected: %v", err)
	}
}
