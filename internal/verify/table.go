package verify

// Sharded visited table (DESIGN.md §12). States are identified by their
// fixed-length record (record.go); the table deduplicates them under
// striped locks with open addressing:
//
//   - hash high bits pick one of 256 shards, each with its own mutex —
//     concurrent inserts rarely contend;
//   - within a shard an open-addressed index maps hashes to an
//     append-only meta array (hash, parent ref, move index) and an
//     append-only word arena holding the records back to back, record i
//     at words [i*L, (i+1)*L) — one big allocation per shard instead of
//     one per state;
//   - a ref (shard<<32 | meta index) names a state stably across index
//     rehashes, so parent links survive growth.
//
// Lookups compare whole records on a hash match, so a 64-bit collision
// costs a probe, never a wrong dedup. Reads during the search copy under
// the shard lock: concurrent appends may grow the meta and arena slices.

import (
	"sync"
	"sync/atomic"
)

const tableShards = 256

// ref names a state in the table: shard index in the high 32 bits, meta
// index in the low 32.
type ref uint64

// refNil marks the root's parent.
const refNil = ref(^uint64(0))

func packRef(shard uint64, metaIdx int) ref {
	return ref(shard<<32 | uint64(uint32(metaIdx)))
}

func (r ref) shard() uint64 { return uint64(r) >> 32 }
func (r ref) metaIdx() int  { return int(uint32(r)) }

// nodeMeta is the per-state record: identity plus the parent link the
// trace reconstruction walks.
type nodeMeta struct {
	fp     uint64
	parent ref
	moveID int32 // index into the parent's enabledMoves list (-1 for root)
}

type tableShard struct {
	mu    sync.Mutex
	idx   []uint32 // open-addressed: metaIdx+1, 0 = empty
	mask  uint64
	meta  []nodeMeta
	arena []uint64
}

// table is the concurrent visited set of records of words words each.
// max bounds the total state count across shards (the bounded-memory
// mode); once reached, inserts report full and the table is marked
// truncated.
type table struct {
	words     int
	max       int64
	count     atomic.Int64
	truncated atomic.Bool
	shards    [tableShards]tableShard
}

// shardInitSlots is a shard index's size at its first insert. Indexes
// are allocated lazily, so a small search touches only the shards its
// few states hash to.
const shardInitSlots = 64

func newTable(words, max int) *table {
	return &table{words: words, max: int64(max)}
}

// insert adds the record if unseen. It returns the state's ref, whether
// this call inserted it, and whether the global bound rejected it (full
// implies not inserted and an invalid ref).
func (t *table) insert(fp uint64, rec []uint64, parent ref, moveID int32) (r ref, isNew bool, full bool) {
	shard := fp >> 56
	s := &t.shards[shard]
	L := t.words
	s.mu.Lock()
	if s.idx == nil {
		s.idx = make([]uint32, shardInitSlots)
		s.mask = shardInitSlots - 1
	}
	i := fp & s.mask
	for {
		slot := s.idx[i]
		if slot == 0 {
			break
		}
		mi := int(slot - 1)
		if s.meta[mi].fp == fp && equalRecords(s.arena[mi*L:mi*L+L], rec) {
			s.mu.Unlock()
			return packRef(shard, mi), false, false
		}
		i = (i + 1) & s.mask
	}
	if t.count.Add(1) > t.max {
		t.count.Add(-1)
		t.truncated.Store(true)
		s.mu.Unlock()
		return refNil, false, true
	}
	s.arena = append(s.arena, rec...)
	s.meta = append(s.meta, nodeMeta{fp: fp, parent: parent, moveID: moveID})
	s.idx[i] = uint32(len(s.meta))
	if uint64(len(s.meta))*4 >= uint64(len(s.idx))*3 {
		s.grow()
	}
	r = packRef(shard, len(s.meta)-1)
	s.mu.Unlock()
	return r, true, false
}

// grow doubles the shard's index and reinserts every meta entry. Refs
// are meta indexes, so they are unaffected.
func (s *tableShard) grow() {
	idx := make([]uint32, len(s.idx)*2)
	mask := uint64(len(idx) - 1)
	for j := range s.meta {
		i := s.meta[j].fp & mask
		for idx[i] != 0 {
			i = (i + 1) & mask
		}
		idx[i] = uint32(j + 1)
	}
	s.idx = idx
	s.mask = mask
}

// record copies the state's record into buf, which has the table's
// record length.
func (t *table) record(r ref, buf []uint64) {
	s := &t.shards[r.shard()]
	off := r.metaIdx() * t.words
	s.mu.Lock()
	copy(buf, s.arena[off:off+t.words])
	s.mu.Unlock()
}

// metaAfter returns the meta record without locking. It is only for use
// once the search is over and no insert can run.
func (t *table) metaAfter(r ref) nodeMeta {
	return t.shards[r.shard()].meta[r.metaIdx()]
}

// arenaBytes sums the record bytes pooled across shards.
func (t *table) arenaBytes() int {
	total := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		total += 8 * len(s.arena)
		s.mu.Unlock()
	}
	return total
}
