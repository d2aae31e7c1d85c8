package fsm

// This file exports a read-only view of a Program's dispatch tables so
// the AOT Go generator (internal/codegen) can emit flat state×event
// dispatch from the exact rows the Machine interpreter executes, rather
// than re-deriving them from the Spec. Indices returned here are the
// Program's own: state i is StateName(i), event i is EventAt(i), and a
// fired transition's program-wide index is its position in
// Spec().Transitions. See DESIGN.md §11.

// NumStates returns the number of states in declaration order.
func (p *Program) NumStates() int { return len(p.states) }

// StateName returns the name of state index i.
func (p *Program) StateName(i int) string { return p.states[i] }

// FinalState reports whether state index i is accepting.
func (p *Program) FinalState(i int) bool { return p.finals[i] }

// NumEvents returns the number of events in declaration order.
func (p *Program) NumEvents() int { return p.numEvents }

// EventAt returns the declaration of event index i.
func (p *Program) EventAt(i int) *Event { return p.events[i].ev }

// RowIR is the exported view of one (state, event) dispatch row.
type RowIR struct {
	// Transitions in declaration (guard-evaluation) order.
	Transitions []*Transition
	// Indices[j] is Transitions[j]'s program-wide index within
	// Spec().Transitions.
	Indices []int
	// Ignored marks a declared ignore; only meaningful when Transitions
	// is empty. An empty, non-ignored row is an invalid (state, event)
	// pair: stepping it is ErrInvalidTransition.
	Ignored bool
}

// RowIR returns the dispatch row for (state, event) indices.
func (p *Program) RowIR(state, event int) RowIR {
	row := &p.rows[state*p.numEvents+event]
	ir := RowIR{Ignored: row.ignored}
	for i := range row.ts {
		t := row.ts[i].t
		ir.Transitions = append(ir.Transitions, t)
		ir.Indices = append(ir.Indices, p.transitionIndex(t))
	}
	return ir
}

// transitionIndex locates t within the spec's declaration order.
func (p *Program) transitionIndex(t *Transition) int {
	for i := range p.spec.Transitions {
		if &p.spec.Transitions[i] == t {
			return i
		}
	}
	return -1
}
