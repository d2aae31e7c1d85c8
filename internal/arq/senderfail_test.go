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
		check(t, s.Done(), s.OK(), s.Err())
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
