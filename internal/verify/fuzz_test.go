package verify

import (
	"bytes"
	"testing"

	"protodsl/internal/expr"
)

// FuzzStateCanon throws arbitrary bytes at the canonical state decoders
// the parallel checker trusts for dedup and rehydration, and checks:
//
//  1. Neither expr.DecodeCanon, expr.CanonLen nor decodeState panics,
//     whatever the input — the visited table must survive hostile
//     encodings — and CanonLen measures exactly what DecodeCanon reads.
//  2. Any value that decodes re-encodes to a canonical fixed point:
//     decode(enc(v)) succeeds, consumes everything, and re-encodes to
//     identical bytes. (enc(decode(data)) may differ from data — the
//     decoder accepts non-minimal varints — but one round through the
//     encoder must be idempotent, or the dedup table would split states.)
//  3. The same fixed-point property for whole global states of the
//     stop-and-wait system: a decodable state encodes canonically, the
//     interned encoding equals the reference encoder's, and equal
//     canonical bytes means equal fingerprints feeding the table.
//
// Seed corpus: testdata/fuzz/FuzzStateCanon (real root and mid-search
// state encodings plus truncated/bit-flipped mutations).
func FuzzStateCanon(f *testing.F) {
	sys, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 2, Lossy: true})
	if err != nil {
		f.Fatal(err)
	}
	progs, err := compileSystem(sys)
	if err != nil {
		f.Fatal(err)
	}

	// Seed with real encodings: the root state and every state two BFS
	// levels deep, plus hostile mutations.
	ms := newMachines(progs)
	queues := make([][]expr.Value, len(sys.Routes))
	root := encodeGlobal(sys, ms, queues, nil)
	f.Add(root)
	f.Add(root[:len(root)/2])
	flip := bytes.Clone(root)
	flip[0] ^= 0xff
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(expr.U8(7).AppendCanon(nil))
	f.Add(expr.Msg("Pkt", map[string]expr.Value{"seq": expr.U8(3)}).AppendCanon(nil))

	deliverArgs := deliverArgsFor(sys)
	for _, mv := range enabledMoves(sys, ms, queues, nil) {
		ms2 := newMachines(progs)
		q2 := make([][]expr.Value, len(queues))
		copy(q2, queues)
		if _, err := applyMove(sys, ms2, q2, mv, deliverArgs, nil); err == nil {
			f.Add(encodeGlobal(sys, ms2, q2, nil))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1+2: single values.
		if v, _, err := expr.DecodeCanon(data); err == nil {
			enc := v.AppendCanon(nil)
			v2, rest, err := expr.DecodeCanon(enc)
			if err != nil {
				t.Fatalf("re-decode of canonical encoding failed: %v (enc=%x)", err, enc)
			}
			if len(rest) != 0 {
				t.Fatalf("canonical encoding has %d trailing bytes: %x", len(rest), enc)
			}
			if enc2 := v2.AppendCanon(nil); !bytes.Equal(enc2, enc) {
				t.Fatalf("canonical encoding not a fixed point: %x -> %x", enc, enc2)
			}
		}

		// CanonLen walks exactly what DecodeCanon consumes.
		if _, rest, err := expr.DecodeCanon(data); err == nil {
			if n, err := expr.CanonLen(data); err != nil || n != len(data)-len(rest) {
				t.Fatalf("CanonLen = %d, %v; DecodeCanon consumed %d", n, err, len(data)-len(rest))
			}
		}

		// Property 1+3: whole global states, through the interned codec
		// the workers use, which must also agree with the reference
		// encoder.
		fms := newMachines(progs)
		tables := newMsgTables(sys, progs)
		fq := make([][]msgID, len(sys.Routes))
		if err := decodeState(tables, fms, fq, data); err != nil {
			return
		}
		canon := encodeState(sys, tables, fms, fq, nil)
		if ref := encodeGlobal(sys, fms, queueValues(tables, fq), nil); !bytes.Equal(ref, canon) {
			t.Fatalf("interned encoding %x, reference %x", canon, ref)
		}
		if err := decodeState(tables, fms, fq, canon); err != nil {
			t.Fatalf("canonical state encoding does not decode: %v (canon=%x)", err, canon)
		}
		canon2 := encodeState(sys, tables, fms, fq, nil)
		if !bytes.Equal(canon2, canon) {
			t.Fatalf("state encoding not a fixed point: %x -> %x", canon, canon2)
		}
		if fingerprint(canon) != fingerprint(canon2) {
			t.Fatal("equal encodings, unequal fingerprints")
		}
	})
}
