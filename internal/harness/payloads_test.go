package harness

import (
	"bytes"
	"testing"
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

// DistinctPayloads fills one backing array from a pattern; its content
// must stay the per-byte formula (E11's golden, bench's delivery check
// and protosim all carry these bytes), and no payload may have room to
// grow into its neighbour.
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
