package verify

// Interned values and the canonical global-state encoding (DESIGN.md
// §12).
//
// Explore's state record (record.go) holds every value that is not a
// scalar — in-flight messages, and bytes, string or message variables —
// as a 32-bit id. Ids come from append-only intern tables that live for
// one Explore and are shared by all its workers, so an id names the same
// value in every worker's records, and two ids are equal iff the values'
// canonical encodings (expr.AppendCanon) are. Each worker reads a table
// through an internCache: a private view of the entries plus an index
// keyed by a hash of the canonical bytes. Only a miss — a value the
// worker has not interned before, or an id another worker minted since
// the view was taken — takes the table's lock, so once the caches are
// warm an expansion neither locks nor does a string-keyed lookup.
//
// The canonical encoding is still the checker's ground truth. It is the
// concatenation of every machine's fsm.AppendState encoding followed by
// every route's queue: a uvarint message count, then each message's
// canonical bytes, emitted in sorted byte order on reordering routes
// (permutations of the same in-flight multiset are one state). All
// components are self-delimiting, so the concatenation is injective.
// Explore computes it only for violating states, whose report is sorted
// by it.

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// internEntry is one interned value: its canonical bytes and the
// immutable value engines are handed.
type internEntry struct {
	enc []byte
	val expr.Value
}

// internTable is an append-only, Explore-wide intern table. Entries are
// never modified once appended, so a worker may keep reading a prefix of
// entries it copied under the lock.
type internTable struct {
	mu      sync.Mutex
	ids     map[string]uint32 // canonical bytes -> id
	entries []internEntry
	// own builds the stored value of a first sighting from the value and
	// its canonical bytes (already copied; never modified).
	own func(v expr.Value, canon []byte) expr.Value
}

// newMsgTables builds one table per route. A stored message is rebuilt in
// the consumer's compiled shape when that represents it exactly, so
// deliveries take the compiled guards' slot fast path.
func newMsgTables(sys *System, progs []*fsm.Program) []*internTable {
	ts := make([]*internTable, len(sys.Routes))
	for ri, r := range sys.Routes {
		shape := progs[r.To].MsgShape(r.Message)
		ts[ri] = &internTable{
			ids: map[string]uint32{},
			own: func(v expr.Value, canon []byte) expr.Value { return ownMsg(shape, v, canon) },
		}
	}
	return ts
}

// newVarTable builds the table of non-scalar variable values. A stored
// value is decoded from its canonical bytes, exactly the value
// fsm.Machine.RestoreState would put in the slot.
func newVarTable() *internTable {
	return &internTable{
		ids: map[string]uint32{},
		own: func(_ expr.Value, canon []byte) expr.Value {
			v, _, _ := expr.DecodeCanon(canon) // canon is AppendCanon output
			return v
		},
	}
}

// intern returns the id of the value v whose canonical bytes are canon,
// adding it on a first sighting, and the entries as of the call.
func (t *internTable) intern(v expr.Value, canon []byte) (uint32, []internEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.ids[string(canon)]
	if !ok {
		enc := bytes.Clone(canon)
		id = uint32(len(t.entries))
		t.entries = append(t.entries, internEntry{enc: enc, val: t.own(v, enc)})
		t.ids[string(enc)] = id
	}
	return id, t.entries
}

// view returns the entries appended so far.
func (t *internTable) view() []internEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.entries
}

// ownMsg returns an immutable copy of v: a message rebuilt in shape when
// that represents it exactly (same canonical bytes), a copy built by
// expr.Msg otherwise. Other kinds are immutable already.
func ownMsg(shape *expr.MsgShape, v expr.Value, canon []byte) expr.Value {
	if v.Kind() != expr.KindMsg {
		return v
	}
	if s := shape; s != nil && v.MsgName() == s.Name() {
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

// internSeed keys the caches' hash of canonical bytes. It only places
// entries in a worker-private index, so it need not be stable.
var internSeed = maphash.MakeSeed()

// internCache is one worker's lock-free front of an internTable.
type internCache struct {
	t       *internTable
	entries []internEntry // a prefix of t.entries
	// slots is an open-addressed index of the ids this worker has
	// interned, keyed by the hash of their canonical bytes.
	slots []cacheSlot
	n     int
}

type cacheSlot struct {
	hash uint64
	id   uint32
	used bool
}

func newInternCache(t *internTable) internCache {
	return internCache{t: t, slots: make([]cacheSlot, 16)}
}

// entry returns the entry of id, refreshing the view when id was minted
// by another worker since the last refresh.
func (c *internCache) entry(id uint32) *internEntry {
	if int(id) >= len(c.entries) {
		c.entries = c.t.view()
	}
	return &c.entries[id]
}

// intern returns the id of v, whose canonical bytes are canon. v and
// canon may alias scratch: a first sighting stores copies.
func (c *internCache) intern(v expr.Value, canon []byte) uint32 {
	h := maphash.Bytes(internSeed, canon)
	mask := uint64(len(c.slots) - 1)
	i := h & mask
	for ; c.slots[i].used; i = (i + 1) & mask {
		if s := &c.slots[i]; s.hash == h && bytes.Equal(c.entries[s.id].enc, canon) {
			return s.id
		}
	}
	id, entries := c.t.intern(v, canon)
	c.entries = entries
	c.slots[i] = cacheSlot{hash: h, id: id, used: true}
	if c.n++; c.n*4 >= len(c.slots)*3 {
		c.grow()
	}
	return id
}

// grow doubles the index.
func (c *internCache) grow() {
	slots := make([]cacheSlot, len(c.slots)*2)
	mask := uint64(len(slots) - 1)
	for _, s := range c.slots {
		if !s.used {
			continue
		}
		i := s.hash & mask
		for slots[i].used {
			i = (i + 1) & mask
		}
		slots[i] = s
	}
	c.slots = slots
}

// less orders two ids by their canonical bytes.
func (c *internCache) less(a, b uint32) bool {
	return a != b && bytes.Compare(c.entry(a).enc, c.entry(b).enc) < 0
}

// sort puts q into canonical (byte) order in place. Queues are bounded
// by the route capacity, so insertion sort is the right tool.
func (c *internCache) sort(q []uint32) {
	for i := 1; i < len(q); i++ {
		for j := i; j > 0 && c.less(q[j], q[j-1]); j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
}

// minIndex returns the index of the canonically smallest message in q
// (the first, among equals).
func (c *internCache) minIndex(q []uint32) int {
	min := 0
	for i := 1; i < len(q); i++ {
		if c.less(q[i], q[min]) {
			min = i
		}
	}
	return min
}

// encodeState appends the canonical encoding of (machines, queues) to
// dst. Reordering queues are sorted in place first.
func encodeState(sys *System, msgs []internCache, ms []*fsm.Machine, queues [][]uint32, dst []byte) []byte {
	for _, m := range ms {
		dst = m.AppendState(dst)
	}
	for ri, q := range queues {
		c := &msgs[ri]
		dst = binary.AppendUvarint(dst, uint64(len(q)))
		if sys.Routes[ri].Reorder {
			c.sort(q)
		}
		for _, id := range q {
			dst = append(dst, c.entry(id).enc...)
		}
	}
	return dst
}
