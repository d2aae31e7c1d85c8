package verify

// The fixed-layout state record (DESIGN.md §12). Inside Explore a global
// state is a []uint64 of one length for the whole search:
//
//   - per machine, word-aligned: the state index, then every variable
//     packed at its declared width (a bool in one bit, a uintN in N bits),
//     or as a 32-bit id into the variable intern table when its values
//     are not scalars of one fixed width;
//   - per route, word-aligned: Capacity 32-bit slots holding message
//     id+1 in queue order, 0 past the last message. Reordering queues are
//     kept in canonical byte order, as in the canonical encoding.
//
// Fields never straddle a word. Saving a machine reads its slots through
// fsm.Machine.StateIndex/VarSlot and restoring one writes them back
// through SetStateIndex/SetVarSlot: no varint, no DecodeCanon, no map.
//
// Two records are equal iff the canonical encodings of their states are:
// a packed uint holds the value at exactly its declared width (fsm's
// coerce truncates every assignment to it, and a variable whose initial
// value has another width is interned instead), the state index and a
// bool are exact, and interned ids are equal iff canonical bytes are.

import (
	"math/bits"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// field is a bit field of a record.
type field struct {
	word  int
	shift uint
	mask  uint64 // right-aligned
}

func (f field) get(rec []uint64) uint64 { return rec[f.word] >> f.shift & f.mask }

// put ORs x into the field, which must be clear.
func (f field) put(rec []uint64, x uint64) { rec[f.word] |= x << f.shift }

// varKind says how a variable is held in the record.
type varKind uint8

const (
	varUint     varKind = iota // packed at its declared width
	varBool                    // one bit
	varInterned                // a variable intern table id
)

type varField struct {
	field
	kind varKind
	bits int // a varUint's width
}

type machineLayout struct {
	w0, w1 int // the machine's words
	state  field
	vars   []varField
}

type routeLayout struct {
	w0, w1 int
	slots  []field
}

// recordLayout places every machine and route of a system in the record.
type recordLayout struct {
	words    int
	machines []machineLayout
	routes   []routeLayout
}

// packer hands out fields, opening a new word when one does not fit.
type packer struct {
	words int
	used  uint // bits used in the last word
}

func (p *packer) align() {
	if p.used > 0 {
		p.words++
		p.used = 0
	}
}

func (p *packer) field(width uint) field {
	if p.used+width > 64 {
		p.align()
	}
	f := field{word: p.words, shift: p.used, mask: ^uint64(0) >> (64 - width)}
	if p.used += width; p.used == 64 {
		p.align()
	}
	return f
}

func newRecordLayout(sys *System, progs []*fsm.Program) *recordLayout {
	l := &recordLayout{
		machines: make([]machineLayout, len(progs)),
		routes:   make([]routeLayout, len(sys.Routes)),
	}
	var p packer
	for mi, prog := range progs {
		spec := prog.Spec()
		ml := &l.machines[mi]
		ml.w0 = p.words
		ml.state = p.field(uint(max(bits.Len(uint(len(spec.States)-1)), 1)))
		ml.vars = make([]varField, len(spec.Vars))
		for vi, v := range spec.Vars {
			vf := &ml.vars[vi]
			switch {
			case v.Type.Kind == expr.KindBool:
				vf.kind, vf.field = varBool, p.field(1)
			case v.Type.Kind == expr.KindUint && exactWidth(v):
				vf.kind, vf.bits = varUint, expr.Uint(0, v.Type.Bits).Bits()
				vf.field = p.field(uint(vf.bits))
			default:
				vf.kind, vf.field = varInterned, p.field(32)
			}
		}
		p.align()
		ml.w1 = p.words
	}
	for ri, r := range sys.Routes {
		rl := &l.routes[ri]
		rl.w0 = p.words
		rl.slots = make([]field, r.Capacity)
		for k := range rl.slots {
			rl.slots[k] = p.field(32)
		}
		p.align()
		rl.w1 = p.words
	}
	l.words = max(p.words, 1)
	return l
}

// exactWidth reports whether a uint variable only ever holds values of
// its declared width: assignments are coerced to it, so only an initial
// value of another width could break that.
func exactWidth(v fsm.Var) bool {
	return !v.Init.IsValid() || v.Init.Bits() == expr.Uint(0, v.Type.Bits).Bits()
}

// hashRecord hashes a record a word at a time, with a splitmix64
// finalizer so both the shard selector (high bits) and the probe start
// (low bits) are well mixed. Collisions are survivable: the visited
// table compares whole records on a hash match.
func hashRecord(rec []uint64) uint64 {
	h := uint64(len(rec))
	for _, w := range rec {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// equalRecords compares two records of one layout.
func equalRecords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// saveMachine writes machine mi's state into its words of rec.
func (w *pworker) saveMachine(mi int, rec []uint64) {
	ml := &w.e.lay.machines[mi]
	m := w.ms[mi]
	clear(rec[ml.w0:ml.w1])
	ml.state.put(rec, uint64(m.StateIndex()))
	for vi := range ml.vars {
		vf := &ml.vars[vi]
		v := m.VarSlot(vi)
		var x uint64
		switch vf.kind {
		case varUint:
			x = v.AsUint()
		case varBool:
			if v.AsBool() {
				x = 1
			}
		default:
			w.canonBuf = v.AppendCanon(w.canonBuf[:0])
			x = uint64(w.vars.intern(v, w.canonBuf))
		}
		vf.put(rec, x)
	}
}

// restoreMachine loads machine mi from rec.
func (w *pworker) restoreMachine(mi int, rec []uint64) {
	ml := &w.e.lay.machines[mi]
	m := w.ms[mi]
	m.SetStateIndex(int(ml.state.get(rec)))
	for vi := range ml.vars {
		vf := &ml.vars[vi]
		x := vf.get(rec)
		var v expr.Value
		switch vf.kind {
		case varUint:
			v = expr.Uint(x, vf.bits)
		case varBool:
			v = expr.Bool(x != 0)
		default:
			v = w.vars.entry(uint32(x)).val
		}
		m.SetVarSlot(vi, v)
	}
}

// saveQueue writes route ri's queue q into rec, sorting a reordering
// queue into canonical order first.
func (w *pworker) saveQueue(ri int, q []uint32, rec []uint64) {
	rl := &w.e.lay.routes[ri]
	clear(rec[rl.w0:rl.w1])
	if w.e.sys.Routes[ri].Reorder {
		w.msgs[ri].sort(q)
	}
	for k, id := range q {
		rl.slots[k].put(rec, uint64(id)+1)
	}
}

// restoreQueues decodes every route's queue from rec into queues.
func (w *pworker) restoreQueues(rec []uint64, queues [][]uint32) {
	for ri := range queues {
		q := queues[ri][:0]
		for _, f := range w.e.lay.routes[ri].slots {
			x := f.get(rec)
			if x == 0 {
				break
			}
			q = append(q, uint32(x-1))
		}
		queues[ri] = q
	}
}

// restore loads the state rec into the worker's machines and queues.
func (w *pworker) restore(rec []uint64, queues [][]uint32) {
	for mi := range w.ms {
		w.restoreMachine(mi, rec)
	}
	w.restoreQueues(rec, queues)
}

// save writes the whole state of the worker's machines and queues.
func (w *pworker) save(queues [][]uint32, rec []uint64) {
	for mi := range w.ms {
		w.saveMachine(mi, rec)
	}
	for ri, q := range queues {
		w.saveQueue(ri, q, rec)
	}
}

// boundInvariant is an invariant bound to the record fields it reads.
type boundInvariant struct {
	inv    *Invariant
	vars   []varField
	states []boundState
}

type boundState struct {
	field
	names []string // state names by index
}

// bindInvariants binds the invariants to record fields, through the
// variable indexes compileSystem resolved.
func (e *pexplorer) bindInvariants(invs []Invariant) []boundInvariant {
	out := make([]boundInvariant, len(invs))
	for i := range invs {
		b := &out[i]
		b.inv = &invs[i]
		for j, vr := range invs[i].vars {
			b.vars = append(b.vars, e.lay.machines[vr.machine].vars[e.invVars[i][j]])
		}
		for _, mi := range invs[i].states {
			names := make([]string, len(e.progs[mi].Spec().States))
			for si, st := range e.progs[mi].Spec().States {
				names[si] = st.Name
			}
			b.states = append(b.states, boundState{field: e.lay.machines[mi].state, names: names})
		}
	}
	return out
}

// eval checks a bound invariant on rec, with w's scratch. A uint held as
// an interned value (see exactWidth) is read through w's intern cache.
func (b *boundInvariant) eval(w *pworker, rec []uint64) error {
	u, st := w.invU[:len(b.vars)], w.invStates[:len(b.states)]
	for i, f := range b.vars {
		u[i] = f.get(rec)
		if f.kind == varInterned {
			u[i] = w.vars.entry(uint32(u[i])).val.AsUint()
		}
	}
	for i, s := range b.states {
		st[i] = s.names[s.get(rec)]
	}
	return b.inv.check(u, st)
}
