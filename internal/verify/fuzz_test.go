package verify

import (
	"bytes"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// FuzzStateCanon throws arbitrary bytes at the canonical state decoders
// (fsm.Machine.RestoreState, expr.DecodeCanon) and checks:
//
//  1. Neither expr.DecodeCanon, expr.CanonLen nor decodeState panics,
//     whatever the input — a state read back must survive hostile
//     bytes — and CanonLen measures exactly what DecodeCanon reads.
//  2. Any value that decodes re-encodes to a canonical fixed point:
//     decode(enc(v)) succeeds, consumes everything, and re-encodes to
//     identical bytes. (enc(decode(data)) may differ from data — the
//     decoder accepts non-minimal varints — but one round through the
//     encoder must be idempotent, or one state would have two encodings.)
//  3. The same fixed-point property for whole global states of the
//     stop-and-wait system: a decodable state encodes canonically, and
//     the interned encoding equals the reference encoder's.
//  4. A decoded state the search could hold packs into a state record
//     that its canonical round trip leaves unchanged, so equal canonical
//     bytes feed the visited table equal records and hashes.
//
// Seed corpus: testdata/fuzz/FuzzStateCanon (real root and mid-search
// state encodings plus truncated/bit-flipped mutations).
func FuzzStateCanon(f *testing.F) {
	sys, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 2, Lossy: true})
	if err != nil {
		f.Fatal(err)
	}
	b, err := compileSystem(sys, nil)
	if err != nil {
		f.Fatal(err)
	}
	progs := b.progs

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
		tables := newMsgCaches(sys, progs)
		fq := make([][]uint32, len(sys.Routes))
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

		// Property 4: a state the search can hold — every uint at its
		// declared width and no queue past its capacity — packs into a
		// record that the canonical round trip leaves unchanged, so equal
		// canonical bytes feed the visited table equal records and hashes.
		if !inRecordDomain(sys, progs, fms, fq) {
			return
		}
		e, err := newExplorer(sys, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		w := e.workers[0]
		rec1, rec2 := make([]uint64, e.lay.words), make([]uint64, e.lay.words)
		if err := decodeState(w.msgs, w.ms, w.baseQ, data); err != nil {
			t.Fatal(err)
		}
		w.save(w.baseQ, rec1)
		if err := decodeState(w.msgs, w.ms, w.baseQ, encodeState(sys, w.msgs, w.ms, w.baseQ, nil)); err != nil {
			t.Fatal(err)
		}
		w.save(w.baseQ, rec2)
		if !equalRecords(rec1, rec2) || hashRecord(rec1) != hashRecord(rec2) {
			t.Fatalf("canonical round trip changed the record: %x -> %x", rec1, rec2)
		}
	})
}

// inRecordDomain reports whether a decoded state is one the search could
// reach: uint variables at their declared widths (every assignment is
// coerced to it) and queues within capacity. RestoreState accepts more.
func inRecordDomain(sys *System, progs []*fsm.Program, ms []*fsm.Machine, queues [][]uint32) bool {
	for mi, m := range ms {
		for vi, v := range progs[mi].Spec().Vars {
			if x := m.VarSlot(vi); x.Kind() == expr.KindUint && x.Bits() != expr.Uint(0, v.Type.Bits).Bits() {
				return false
			}
		}
	}
	for ri, q := range queues {
		if len(q) > sys.Routes[ri].Capacity {
			return false
		}
	}
	return true
}
