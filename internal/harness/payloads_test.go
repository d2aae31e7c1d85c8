package harness

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"protodsl/internal/arq"
	"protodsl/internal/netsim"
)

// formulaPayload is DistinctPayloads' defining formula, one byte at a
// time: byte j of payload i is byte(key+i+j).
func formulaPayload(key, i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(key + i + j)
	}
	return p
}

func distinctPayloadsByByte(key, count, size int) [][]byte {
	out := make([][]byte, count)
	for i := range out {
		out[i] = formulaPayload(key, i, size)
	}
	return out
}

// DistinctPayloads windows one shared pattern; its content must stay
// the per-byte formula (E11's golden, bench's delivery check and
// protosim all carry these bytes), and no payload may have room to grow
// into its neighbour.
func TestDistinctPayloadsMatchFormula(t *testing.T) {
	for _, tc := range []struct{ key, count, size int }{
		{0, 0, 16}, {5, 3, 0}, {0, 1, 1}, {7, 10, 64}, {-9, 5, 300},
		{31*3 + 7*5, 600, 33}, // count > 256: the pattern offset wraps
	} {
		got := DistinctPayloads(tc.key, tc.count, tc.size)
		want := distinctPayloadsByByte(tc.key, tc.count, tc.size)
		if len(got) != len(want) {
			t.Fatalf("%+v: %d payloads, want %d", tc, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("%+v: payload %d = %x, want %x", tc, i, got[i], want[i])
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%+v: payload %d has cap %d > len %d", tc, i, cap(got[i]), len(got[i]))
			}
		}
	}
}

// checkDelivered must reject every way a delivery can be wrong while
// its count still looks right: a flipped byte, another flow's payload,
// a neighbouring index's payload and a short payload. A checker that
// compared lengths only would pass all but the last.
func TestCheckDeliveredRejectsWrongContent(t *testing.T) {
	const count, size = 300, 48
	key, other := flowKey(2, 3), flowKey(2, 4)
	good := func() [][]byte { return distinctPayloadsByByte(key, count, size) }
	if n, err := checkDelivered(good(), key, count, size); err != nil || n != count*size {
		t.Fatalf("intact delivery: n=%d err=%v, want n=%d", n, err, count*size)
	}
	if n, err := checkDelivered(good()[:count/2], key, count, size); err != nil || n != count/2*size {
		t.Fatalf("partial in-order delivery: n=%d err=%v", n, err)
	}
	for _, i := range []int{0, 1, 255, 256, count - 1} {
		for name, mutate := range map[string]func(d [][]byte){
			"flipped byte": func(d [][]byte) { d[i][size/2] ^= 0x10 },
			"other flow":   func(d [][]byte) { d[i] = formulaPayload(other, i, size) },
			"index i+1":    func(d [][]byte) { d[i] = formulaPayload(key, i+1, size) },
			"index i-1":    func(d [][]byte) { d[i] = formulaPayload(key, i-1, size) },
			"short":        func(d [][]byte) { d[i] = d[i][:size-1] },
		} {
			d := good()
			mutate(d)
			if _, err := checkDelivered(d, key, count, size); err == nil {
				t.Errorf("payload %d, %s: accepted", i, name)
			}
		}
	}
	if _, err := checkDelivered(good(), key, count-1, size); err == nil {
		t.Error("more payloads delivered than sent: accepted")
	}
}

// The engines only read their payloads: DistinctPayloads' windows share
// one pattern, so a write through any of them would corrupt every
// payload that overlaps it. Stop-and-wait, go-back-N and selective
// repeat each carry a set across a lossy, duplicating, corrupting link,
// and the payloads still hold the formula's bytes afterwards.
func TestEnginesLeavePayloadsUnchanged(t *testing.T) {
	const key, count, size = 11, 300, 33
	link := netsim.LinkParams{Delay: time.Millisecond, LossProb: 0.1, DupProb: 0.05, CorruptProb: 0.05}
	run := map[string]func(payloads [][]byte) error{
		"stop-and-wait": func(payloads [][]byte) error {
			res, err := arq.RunTransfer(arq.Config{Link: link, RTO: 10 * time.Millisecond, MaxRetries: 60, Seed: 3}, payloads)
			if err == nil && !res.OK {
				err = fmt.Errorf("transfer failed in %s", res.SenderState)
			}
			return err
		},
		"go-back-N":        func(payloads [][]byte) error { return runWindowed(arq.StartGBN, link, payloads) },
		"selective repeat": func(payloads [][]byte) error { return runWindowed(arq.StartSR, link, payloads) },
	}
	for name, transfer := range run {
		payloads := DistinctPayloads(key, count, size)
		if err := transfer(payloads); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range payloads {
			if want := formulaPayload(key, i, size); !bytes.Equal(p, want) || cap(p) != size {
				t.Fatalf("%s: payload %d is %x (cap %d) after the transfer, want %x (cap %d)", name, i, p, cap(p), want, size)
			}
		}
	}
}

// runWindowed carries payloads over one windowed flow on a fresh Sim.
func runWindowed(start func(netsim.Runtime, netsim.Port, netsim.Port, arq.FlowConfig, [][]byte) (*arq.WindowFlow, error), link netsim.LinkParams, payloads [][]byte) error {
	sim := netsim.New(5)
	a, err := sim.NewEndpoint("a")
	if err != nil {
		return err
	}
	b, err := sim.NewEndpoint("b")
	if err != nil {
		return err
	}
	sim.Connect(a, b, link)
	fl, err := start(sim, a, b, arq.FlowConfig{Window: 8, RTO: 10 * time.Millisecond, MaxRetries: 60}, payloads)
	if err != nil {
		return err
	}
	if err := sim.RunUntilIdle(1 << 22); err != nil {
		return err
	}
	if err := fl.Err(); err != nil {
		return err
	}
	if r := fl.Result(); !r.OK || len(r.Delivered) != len(payloads) {
		return fmt.Errorf("delivered %d of %d (ok=%v)", len(r.Delivered), len(payloads), r.OK)
	}
	return nil
}

// DistinctPayloads' cost does not grow with count beyond the slice of
// headers: the payload bytes are one pattern, whatever the count.
func TestDistinctPayloadsAllocsDoNotGrowWithCount(t *testing.T) {
	allocs := func(count int) float64 {
		return testing.AllocsPerRun(20, func() { DistinctPayloads(31*3+7*5, count, 33) })
	}
	small, large := allocs(600), allocs(60000)
	if small != large || small > 2 {
		t.Errorf("DistinctPayloads allocates %.1f objects for 600 payloads and %.1f for 60000, want the same, at most 2 (headers and pattern)", small, large)
	}
}
