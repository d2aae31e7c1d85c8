package verify

// Canonical global-state encoding (DESIGN.md §12). A global state is the
// concatenation of every machine's fsm.AppendState encoding followed by
// every route's queue: a uvarint message count, then each message's
// expr canonical encoding. All components are self-delimiting, so the
// concatenation is injective — equal bytes iff equal global state.
//
// Reordering routes are semantically multisets, so their elements are
// emitted in sorted byte order: permutations of the same in-flight
// messages collapse into one canonical state.
//
// Explore's workers hold queues as interned message ids, not values.
// Each worker keeps one msgTable per route mapping a message's canonical
// bytes to an id, the bytes themselves and the value handed to the
// consuming machine. Decoding a queue is then a length scan and a lookup
// per message, encoding one copies the interned bytes, and a fired
// output costs one AppendCanon and a lookup. Only a message's first
// sighting builds a value.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// msgID names an interned message within one route's msgTable.
type msgID int32

// msgTable interns the distinct messages one worker has seen on one
// route.
type msgTable struct {
	ids  map[string]msgID // any accepted encoding -> id
	enc  [][]byte         // canonical bytes, by id
	vals []expr.Value     // immutable value delivered to the consumer, by id
	// shape is the consumer's compiled shape for the route's message, so
	// delivered values take the compiled guards' slot fast path.
	shape *expr.MsgShape
}

// newMsgTables builds one empty table per route of the system.
func newMsgTables(sys *System, progs []*fsm.Program) []msgTable {
	ts := make([]msgTable, len(sys.Routes))
	for ri, r := range sys.Routes {
		ts[ri] = msgTable{ids: map[string]msgID{}, shape: progs[r.To].MsgShape(r.Message)}
	}
	return ts
}

// intern returns the id of v, whose canonical encoding is canon. v may
// alias scratch (a machine's output frame): a first sighting stores a
// copy.
func (t *msgTable) intern(v expr.Value, canon []byte) msgID {
	if id, ok := t.ids[string(canon)]; ok {
		return id
	}
	id := msgID(len(t.enc))
	t.enc = append(t.enc, bytes.Clone(canon))
	t.vals = append(t.vals, t.own(v, canon))
	t.ids[string(canon)] = id
	return id
}

// internEncoded returns the id of the message encoded by b, which may be
// any encoding expr.DecodeCanon accepts; the table stores the canonical
// re-encoding, so a state decoded from non-canonical bytes re-encodes
// canonically.
func (t *msgTable) internEncoded(b []byte) (msgID, error) {
	if id, ok := t.ids[string(b)]; ok {
		return id, nil
	}
	v, rest, err := expr.DecodeCanon(b)
	if err != nil {
		return 0, err
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("%d bytes past the value", len(rest))
	}
	canon := v.AppendCanon(nil)
	id := t.intern(v, canon)
	if !bytes.Equal(b, canon) {
		t.ids[string(b)] = id
	}
	return id, nil
}

// own returns an immutable copy of v: a message rebuilt in the consumer's
// shape when that represents it exactly (same canonical bytes), a copied
// map-backed message otherwise. Other kinds are immutable already.
func (t *msgTable) own(v expr.Value, canon []byte) expr.Value {
	if v.Kind() != expr.KindMsg {
		return v
	}
	if s := t.shape; s != nil && v.MsgName() == s.Name() {
		f := expr.NewFrame(s.NumFields())
		for i := 0; i < s.NumFields(); i++ {
			if fv, ok := v.Field(s.FieldName(i)); ok {
				f.Set(i, fv)
			}
		}
		if sv := expr.FrameMsg(s, f); bytes.Equal(sv.AppendCanon(nil), canon) {
			return sv
		}
	}
	return expr.Msg(v.MsgName(), v.MsgFields())
}

// less orders two ids by their canonical bytes.
func (t *msgTable) less(a, b msgID) bool {
	return bytes.Compare(t.enc[a], t.enc[b]) < 0
}

// sort puts q into canonical (byte) order in place. Queues are bounded
// by the route capacity, so insertion sort is the right tool.
func (t *msgTable) sort(q []msgID) {
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && t.less(q[j], q[j-1]); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

// minIndex returns the index of the canonically smallest message in q
// (the first, among equals).
func (t *msgTable) minIndex(q []msgID) int {
	min := 0
	for i := 1; i < len(q); i++ {
		if t.less(q[i], q[min]) {
			min = i
		}
	}
	return min
}

// encodeState appends the canonical encoding of (machines, queues) to
// dst. Reordering queues are sorted in place first.
func encodeState(sys *System, tables []msgTable, ms []*fsm.Machine, queues [][]msgID, dst []byte) []byte {
	for _, m := range ms {
		dst = m.AppendState(dst)
	}
	for ri, q := range queues {
		t := &tables[ri]
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		if sys.Routes[ri].Reorder {
			t.sort(q)
		}
		for _, id := range q {
			dst = append(dst, t.enc[id]...)
		}
	}
	return dst
}

// decodeState restores machines and queues from an encoding produced by
// encodeState. Queue slices are appended into queues[i][:0] to reuse
// worker buffers; the restored order is the canonical one.
func decodeState(tables []msgTable, ms []*fsm.Machine, queues [][]msgID, data []byte) error {
	rest, err := restoreMachines(ms, data)
	if err != nil {
		return err
	}
	for ri := range queues {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 {
			return fmt.Errorf("verify: corrupt state encoding: route %d count", ri)
		}
		rest = rest[sz:]
		q := queues[ri][:0]
		for i := uint64(0); i < n; i++ {
			l, err := expr.CanonLen(rest)
			if err != nil {
				return fmt.Errorf("verify: corrupt state encoding: route %d msg %d: %w", ri, i, err)
			}
			id, err := tables[ri].internEncoded(rest[:l])
			if err != nil {
				return fmt.Errorf("verify: corrupt state encoding: route %d msg %d: %w", ri, i, err)
			}
			q = append(q, id)
			rest = rest[l:]
		}
		queues[ri] = q
	}
	if len(rest) != 0 {
		return fmt.Errorf("verify: corrupt state encoding: %d trailing bytes", len(rest))
	}
	return nil
}

// restoreMachines restores only the machine section of an encoding,
// returning the remaining (queue) bytes.
func restoreMachines(ms []*fsm.Machine, data []byte) ([]byte, error) {
	for i, m := range ms {
		rest, err := m.RestoreState(data)
		if err != nil {
			return nil, fmt.Errorf("verify: corrupt state encoding: machine %d: %w", i, err)
		}
		data = rest
	}
	return data, nil
}

// fingerprint hashes a canonical state encoding to 64 bits: FNV-1a with
// a splitmix64 finalizer so both the shard selector (high bits) and the
// open-addressing probe start (low bits) are well mixed. Fingerprint
// collisions are survivable — the visited table compares full encodings
// on a fingerprint match.
func fingerprint(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
