package fsm

// Machine state snapshot/restore hooks for the model checker
// (DESIGN.md §12). A machine's dynamic state is exactly (current state,
// variable values): AppendState serialises it to the canonical byte
// encoding and RestoreState loads it back into any machine compiled from
// the same Program. The checker stores these encodings instead of cloned
// machines — one pooled byte string per visited global state — and
// rehydrates a per-worker machine on demand.
//
// The parameter region of the frame is deliberately excluded: parameters
// are bound afresh by every StepEv before any expression reads them, so
// they are scratch, not state.
//
// StateIndex, VarSlot, SetStateIndex and SetVarSlot are the same state
// read and written in place, slot by slot: the checker packs them into
// its own fixed-layout record instead of round-tripping this encoding.

import (
	"encoding/binary"
	"fmt"

	"protodsl/internal/expr"
)

// AppendState appends the machine's canonical dynamic state — the
// current state index followed by every variable's canonical value
// encoding in declaration order — to dst and returns the extended slice.
// The encoding is injective per Program: two machines of the same
// Program encode equal bytes iff they are in the same state with equal
// variable values (including uint widths).
func (m *Machine) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.stateIdx))
	for i := 0; i < m.prog.nVars; i++ {
		dst = m.frame.Get(i).AppendCanon(dst)
	}
	return dst
}

// RestoreState loads a state previously produced by AppendState on a
// machine of the same Program, returning the bytes remaining after the
// consumed prefix. Variable kinds are validated against the program's
// declared types; widths are restored exactly as encoded.
func (m *Machine) RestoreState(data []byte) ([]byte, error) {
	p := m.prog
	idx, n := binary.Uvarint(data)
	if n <= 0 || idx >= uint64(len(p.states)) {
		return nil, fmt.Errorf("machine %s: restore: bad state index", p.spec.Name)
	}
	data = data[n:]
	for i := 0; i < p.nVars; i++ {
		v, rest, err := expr.DecodeCanon(data)
		if err != nil {
			return nil, fmt.Errorf("machine %s: restore var %s: %w", p.spec.Name, p.varNames[i], err)
		}
		if !kindMatches(p.varTypes[i], v) {
			return nil, fmt.Errorf("machine %s: restore var %s: kind %s, want %s",
				p.spec.Name, p.varNames[i], v.Kind(), p.varTypes[i])
		}
		m.frame.Set(i, v)
		data = rest
	}
	m.stateIdx = int(idx)
	return data, nil
}

// StateIndex returns the current state's index in Spec.States.
func (m *Machine) StateIndex() int { return m.stateIdx }

// VarSlot returns variable i's value (Spec.Vars order) without a name
// lookup.
func (m *Machine) VarSlot(i int) expr.Value { return m.frame.Get(i) }

// SetStateIndex moves the machine to state idx (an index in
// Spec.States) without running a transition. Nothing is validated: the
// caller restores a state it read from a machine of the same Program.
func (m *Machine) SetStateIndex(idx int) { m.stateIdx = idx }

// SetVarSlot sets variable i (Spec.Vars order) to v. Nothing is
// validated: v must have the variable's declared kind, and a uint the
// width StepEv's assignments give it.
func (m *Machine) SetVarSlot(i int, v expr.Value) { m.frame.Set(i, v) }
