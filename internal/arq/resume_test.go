package arq

import (
	"bytes"
	"fmt"
	"testing"

	"protodsl/internal/netsim"
)

// sendLog is a netsim.Port that records what a receiver sends.
type sendLog struct{ sent [][]byte }

func (p *sendLog) Addr() netsim.Addr                    { return "receiver" }
func (p *sendLog) SetHandler(func(netsim.Addr, []byte)) {}
func (p *sendLog) Send(_ netsim.Addr, data []byte) error {
	p.sent = append(p.sent, bytes.Clone(data))
	return nil
}

// TestReceiversResumeAtSeededExpect is the resume step: a receiver
// seeded at k acks packets below k as duplicates without delivering
// them, then delivers k onward in order. k is past one 8-bit wrap, so
// the seed must set the absolute index, not just the wire sequence.
func TestReceiversResumeAtSeededExpect(t *testing.T) {
	const k = 300
	codec, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	payload := func(idx int) []byte { return []byte(fmt.Sprintf("payload %d", idx)) }
	for _, tc := range []struct {
		name string
		new  func(netsim.Port) (*WindowReceiver, error)
		// dupAck is the ack a duplicate of packet idx draws: go-back-N
		// re-acks its last in-order packet, selective repeat the packet.
		dupAck func(idx int) uint8
	}{
		{"gbn", func(p netsim.Port) (*WindowReceiver, error) { return NewGBNReceiver(p, "sender") },
			func(int) uint8 { return uint8((k - 1) % 256) }},
		{"sr", func(p netsim.Port) (*WindowReceiver, error) { return NewSRReceiver(p, "sender", FlowConfig{Window: 4}) },
			func(idx int) uint8 { return uint8(idx % 256) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			port := &sendLog{}
			r, err := tc.new(port)
			if err != nil {
				t.Fatal(err)
			}
			r.SeedExpect(k)
			feed := func(idx int) {
				t.Helper()
				pkt, err := codec.AppendEncodePacket(nil, uint8(idx%256), payload(idx))
				if err != nil {
					t.Fatal(err)
				}
				r.OnDatagram("sender", pkt)
			}
			lastAck := func() uint8 {
				t.Helper()
				ack, err := codec.DecodeAckInPlace(port.sent[len(port.sent)-1])
				if err != nil {
					t.Fatal(err)
				}
				return ack.Value().Seq
			}

			for idx := k - 3; idx < k; idx++ {
				feed(idx)
				if len(port.sent) != idx-(k-3)+1 {
					t.Fatalf("duplicate %d drew %d acks in all, want one each", idx, len(port.sent))
				}
				if got, want := lastAck(), tc.dupAck(idx); got != want {
					t.Errorf("duplicate %d acked %d, want %d", idx, got, want)
				}
			}
			if n := len(r.Delivered()); n != 0 || r.Expect() != k {
				t.Fatalf("after duplicates: %d delivered, expect %d; want 0 and %d", n, r.Expect(), k)
			}

			for idx := k; idx < k+5; idx++ {
				feed(idx)
				if got := lastAck(); got != uint8(idx%256) {
					t.Errorf("packet %d acked %d", idx, got)
				}
			}
			got := r.Delivered()
			if len(got) != 5 || r.Expect() != k+5 {
				t.Fatalf("delivered %d, expect %d; want 5 and %d", len(got), r.Expect(), k+5)
			}
			for i, p := range got {
				if !bytes.Equal(p, payload(k+i)) {
					t.Errorf("delivery %d = %q, want %q", i, p, payload(k+i))
				}
			}
		})
	}
}
