package arq

import (
	"errors"
	"testing"
	"time"

	"protodsl/internal/netsim"
	"protodsl/internal/wire"
)

// oversize exceeds the Packet's u16 paylen bound, so encoding it fails.
var oversize = make([]byte, 1<<16)

// TestSendersFailOnEncodeError drives each sender's fail path with a
// payload the Packet codec cannot encode: every flow must end not OK,
// with an error that wraps the codec's.
func TestSendersFailOnEncodeError(t *testing.T) {
	payloads := [][]byte{[]byte("fits"), oversize}
	newSim := func(t *testing.T) (*netsim.Sim, *netsim.Endpoint, *netsim.Endpoint) {
		sim := netsim.New(1)
		sEP, err := sim.NewEndpoint("sender")
		if err != nil {
			t.Fatal(err)
		}
		rEP, err := sim.NewEndpoint("receiver")
		if err != nil {
			t.Fatal(err)
		}
		sim.Connect(sEP, rEP, netsim.LinkParams{Delay: time.Millisecond})
		return sim, sEP, rEP
	}
	check := func(t *testing.T, done, ok bool, err error) {
		t.Helper()
		if !done || ok {
			t.Fatalf("done=%v ok=%v, want a finished, failed flow", done, ok)
		}
		if !errors.Is(err, wire.ErrBadFieldValue) {
			t.Fatalf("Err() = %v, want it to wrap %v", err, wire.ErrBadFieldValue)
		}
	}
	t.Run("stop-and-wait", func(t *testing.T) {
		sim, sEP, rEP := newSim(t)
		if _, err := NewReceiver(sim, rEP, sEP.Addr()); err != nil {
			t.Fatal(err)
		}
		s, err := NewSender(sim, sEP, rEP.Addr(), payloads, 20*time.Millisecond, 3)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		if err := sim.RunUntilIdle(10000); err != nil {
			t.Fatal(err)
		}
		check(t, s.done, s.OK(), s.Err())
	})
	t.Run("go-back-n", func(t *testing.T) {
		sim, sEP, rEP := newSim(t)
		f, err := StartGBN(sim, sEP, rEP, FlowConfig{Window: 4}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunUntilIdle(10000); err != nil {
			t.Fatal(err)
		}
		check(t, f.Done(), f.Result().OK, f.Err())
	})
	t.Run("selective-repeat", func(t *testing.T) {
		sim, sEP, rEP := newSim(t)
		f, err := StartSR(sim, sEP, rEP, FlowConfig{Window: 4}, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunUntilIdle(10000); err != nil {
			t.Fatal(err)
		}
		check(t, f.Done(), f.Result().OK, f.Err())
	})
}

// failPort is a netsim.Port whose every Send fails.
type failPort struct{ sendLog }

var errPortDown = errors.New("port down")

func (p *failPort) Send(netsim.Addr, []byte) error { return errPortDown }

// TestReceiversStopOnSendError drives each receiver's stop path: the
// first ack Send fails, so Err names it, and the receiver delivers
// nothing after that.
func TestReceiversStopOnSendError(t *testing.T) {
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		new  func(netsim.Port) (*WindowReceiver, error)
	}{
		{"gbn", func(p netsim.Port) (*WindowReceiver, error) { return NewGBNReceiver(p, "sender") }},
		{"sr", func(p netsim.Port) (*WindowReceiver, error) { return NewSRReceiver(p, "sender", FlowConfig{Window: 4}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := tc.new(&failPort{})
			if err != nil {
				t.Fatal(err)
			}
			for idx := 0; idx < 3; idx++ {
				pkt, err := codec.AppendEncodePacket(nil, uint8(idx), []byte{byte(idx)})
				if err != nil {
					t.Fatal(err)
				}
				r.OnDatagram("sender", pkt)
			}
			if !errors.Is(r.Err(), errPortDown) {
				t.Fatalf("Err() = %v, want it to wrap %v", r.Err(), errPortDown)
			}
			if n := len(r.Delivered()); n != 1 || r.Expect() != 1 {
				t.Fatalf("delivered %d, expect %d after the failed ack; want 1 and 1", n, r.Expect())
			}
		})
	}
}
