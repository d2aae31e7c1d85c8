package verify

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// encodeGlobal is the reference encoder: the canonical state encoding
// computed straight from machine and queue values, with no interning. It
// pins the format DESIGN.md §12 specifies and FuzzStateCanon seeds from.
func encodeGlobal(sys *System, ms []*fsm.Machine, queues [][]expr.Value, dst []byte) []byte {
	for _, m := range ms {
		dst = m.AppendState(dst)
	}
	for ri, q := range queues {
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		elems := make([][]byte, len(q))
		for i, v := range q {
			elems[i] = v.AppendCanon(nil)
		}
		if sys.Routes[ri].Reorder {
			sort.Slice(elems, func(a, b int) bool { return string(elems[a]) < string(elems[b]) })
		}
		for _, e := range elems {
			dst = append(dst, e...)
		}
	}
	return dst
}

// newMsgCaches builds fresh route message tables with one cache each.
func newMsgCaches(sys *System, progs []*fsm.Program) []internCache {
	ts := newMsgTables(sys, progs)
	cs := make([]internCache, len(ts))
	for i, t := range ts {
		cs[i] = newInternCache(t)
	}
	return cs
}

// queueValues resolves interned queues to the values they stand for.
func queueValues(msgs []internCache, queues [][]uint32) [][]expr.Value {
	out := make([][]expr.Value, len(queues))
	for ri, q := range queues {
		for _, id := range q {
			out[ri] = append(out[ri], msgs[ri].entry(id).val)
		}
	}
	return out
}

// decodeState restores machines and interned queues from a canonical
// state encoding: fsm.Machine.RestoreState for each machine, then per
// route a uvarint count and that many messages, each decoded and
// interned by its canonical re-encoding. It accepts any encoding
// RestoreState and expr.DecodeCanon accept.
func decodeState(msgs []internCache, ms []*fsm.Machine, queues [][]uint32, data []byte) error {
	for i, m := range ms {
		rest, err := m.RestoreState(data)
		if err != nil {
			return fmt.Errorf("machine %d: %w", i, err)
		}
		data = rest
	}
	for ri := range queues {
		n, sz := binary.Uvarint(data)
		if sz <= 0 {
			return fmt.Errorf("route %d count", ri)
		}
		data = data[sz:]
		q := queues[ri][:0]
		for i := uint64(0); i < n; i++ {
			l, err := expr.CanonLen(data)
			if err != nil {
				return fmt.Errorf("route %d msg %d: %w", ri, i, err)
			}
			v, rest, err := expr.DecodeCanon(data[:l])
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("route %d msg %d: %v", ri, i, err)
			}
			q = append(q, msgs[ri].intern(v, v.AppendCanon(nil)))
			data = data[l:]
		}
		queues[ri] = q
	}
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(data))
	}
	return nil
}

// TestInternedEncodingMatchesReference walks the reference engine's
// moves through a GBN system with reordering channels and checks, state
// by state, that the interned codec encodes exactly the reference bytes
// and decodes them back to the same state.
func TestInternedEncodingMatchesReference(t *testing.T) {
	sys, err := BuildGBN(GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 2, Lossy: true, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileSystem(sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	progs := b.progs
	tables := newMsgCaches(sys, progs)
	ms := newMachines(progs)
	queues := make([][]expr.Value, len(sys.Routes))
	deliverArgs := deliverArgsFor(sys)
	dms := newMachines(progs)
	dq := make([][]uint32, len(sys.Routes))

	seen := map[string]bool{}
	frontier := [][]byte{encodeGlobal(sys, ms, queues, nil)}
	for len(frontier) > 0 && len(seen) < 400 {
		enc := frontier[0]
		frontier = frontier[1:]
		if seen[string(enc)] {
			continue
		}
		seen[string(enc)] = true
		if err := decodeState(tables, dms, dq, enc); err != nil {
			t.Fatalf("decodeState: %v", err)
		}
		if got := encodeState(sys, tables, dms, dq, nil); !bytes.Equal(got, enc) {
			t.Fatalf("interned re-encoding %x, reference %x", got, enc)
		}
		for _, mv := range enabledMoves(sys, dms, queueValues(tables, dq), nil) {
			if err := decodeState(tables, ms, dq, enc); err != nil {
				t.Fatal(err)
			}
			q := queueValues(tables, dq)
			if _, err := applyMove(sys, ms, q, mv, deliverArgs, nil); err != nil {
				t.Fatal(err)
			}
			frontier = append(frontier, encodeGlobal(sys, ms, q, nil))
		}
	}
	if len(seen) < 100 {
		t.Fatalf("walked only %d states", len(seen))
	}
}

// TestExploreAllocationCeiling is the allocation budget of the search
// loop: exploring a GBN system at one worker allocates at most twice
// per explored state (1.895 measured), all of it amortised table,
// frontier and result growth — expanding a state itself allocates
// nothing.
func TestExploreAllocationCeiling(t *testing.T) {
	sys, err := BuildGBN(GBNOptions{SeqSpace: 8, Window: 3, Total: 4, Capacity: 2, Lossy: true, Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Invariants: []Invariant{GBNInvariant(8)}, Workers: 1}
	var states int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Explore(sys, opts)
		if err != nil {
			t.Fatal(err)
		}
		states = res.States
	})
	if perState := allocs / float64(states); perState > 2 {
		t.Fatalf("Explore allocates %.0f times for %d states: %.2f per state, ceiling 2", allocs, states, perState)
	} else {
		t.Logf("%.0f allocations for %d states: %.3f per state", allocs, states, perState)
	}
}
