package verify

import (
	"testing"

	"protodsl/internal/expr"
)

// TestRecordMatchesCanonicalEncoding checks the state record against
// the canonical encoding over every reachable state of the TestGridGolden
// targets, at 1 worker and at 4 (where message ids are first minted
// concurrently):
//
//   - distinct records have distinct encodeState encodings;
//   - restoring a record into machines and queues and packing them again
//     gives the record back;
//   - the encoding determines the record: decoding it through
//     fsm.Machine.RestoreState into fresh machines and packing those
//     gives the same record;
//   - the restored states are the reachable ones: the set of encodings
//     holds the initial state's and every successor the reference
//     semantics (applyMove on cloned machines) gives each restored
//     state, and it has the pinned state count.
//
// Together: records are equal iff their canonical encodings are, and
// restoring a record gives back the state it was packed from.
func TestRecordMatchesCanonicalEncoding(t *testing.T) {
	for _, pin := range gridPins() {
		for _, workers := range []int{1, 4} {
			sys, err := pin.build()
			if err != nil {
				t.Fatal(err)
			}
			e, err := newExplorer(sys, Options{Invariants: []Invariant{pin.inv}, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.States != pin.states {
				t.Fatalf("%s workers=%d: %d states, want %d", pin.name, workers, res.States, pin.states)
			}
			w := e.workers[0]
			fresh := newPWorker(e, workers) // fresh machines, the same intern tables
			L := e.lay.words
			rec := make([]uint64, L)
			back := make([]uint64, L)
			seen := make(map[string]bool, res.States)
			walked := 0
			for si := range e.tbl.shards {
				arena := e.tbl.shards[si].arena
				for off := 0; off < len(arena); off += L {
					copy(rec, arena[off:off+L])
					w.restore(rec, w.baseQ)
					canon := encodeState(sys, w.msgs, w.ms, w.baseQ, nil)
					if seen[string(canon)] {
						t.Fatalf("%s workers=%d: two records encode to %x", pin.name, workers, canon)
					}
					seen[string(canon)] = true

					clear(back)
					w.save(w.baseQ, back)
					if !equalRecords(back, rec) {
						t.Fatalf("%s workers=%d: record %x restores and packs to %x", pin.name, workers, rec, back)
					}

					if err := decodeState(fresh.msgs, fresh.ms, fresh.baseQ, canon); err != nil {
						t.Fatalf("%s workers=%d: %x does not decode: %v", pin.name, workers, canon, err)
					}
					clear(back)
					fresh.save(fresh.baseQ, back)
					if !equalRecords(back, rec) {
						t.Fatalf("%s workers=%d: encoding %x of record %x decodes and packs to %x",
							pin.name, workers, canon, rec, back)
					}
					walked++
				}
			}
			if walked != res.States {
				t.Fatalf("%s workers=%d: walked %d records of %d states", pin.name, workers, walked, res.States)
			}

			if workers > 1 {
				continue // the closure below does not depend on who minted the ids
			}
			root := encodeGlobal(sys, newMachines(e.progs), make([][]expr.Value, len(sys.Routes)), nil)
			if !seen[string(root)] {
				t.Fatalf("%s: the initial state %x is not among the restored states", pin.name, root)
			}
			deliverArgs := deliverArgsFor(sys)
			var succ, canon []byte
			ids := make([][]uint32, len(sys.Routes))
			for si := range e.tbl.shards {
				arena := e.tbl.shards[si].arena
				for off := 0; off < len(arena); off += L {
					rec := arena[off : off+L]
					w.restore(rec, w.baseQ)
					queues := queueValues(w.msgs, w.baseQ)
					for _, mv := range enabledMoves(sys, w.ms, queues, nil) {
						// fresh's machines start each move restored from rec.
						for mi := range fresh.ms {
							fresh.restoreMachine(mi, rec)
						}
						q := append([][]expr.Value(nil), queues...)
						if _, err := applyMove(sys, fresh.ms, q, mv, deliverArgs, nil); err != nil {
							continue // a step error leads to no state
						}
						for ri, vs := range q {
							ids[ri] = ids[ri][:0]
							for _, v := range vs {
								canon = v.AppendCanon(canon[:0])
								ids[ri] = append(ids[ri], fresh.msgs[ri].intern(v, canon))
							}
						}
						if succ = encodeState(sys, fresh.msgs, fresh.ms, ids, succ[:0]); !seen[string(succ)] {
							t.Fatalf("%s: %s from %x reaches %x, which no record holds", pin.name, mv, rec, succ)
						}
					}
				}
			}
		}
	}
}
