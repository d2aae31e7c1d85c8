package fsm

import (
	"errors"
	"fmt"

	"protodsl/internal/expr"
)

// Interpreter errors.
var (
	// ErrInvalidTransition is returned by StepEv for an event that is
	// neither handled nor ignored in the current state — the dynamic
	// enforcement of the soundness property (generated code enforces the
	// same property at Go compile time).
	ErrInvalidTransition = errors.New("invalid transition")
	// ErrUnknownEvent is returned for events the spec does not declare.
	ErrUnknownEvent = errors.New("unknown event")
	// ErrBadArg is returned when event arguments do not match the event's
	// declared parameters.
	ErrBadArg = errors.New("bad event argument")
)

// Machine executes a checked Spec — the paper's execTrans: only valid
// transitions can be executed, and every step's effect is fully
// determined by the spec.
//
// Execution runs on the compiled engine: NewMachine lowers the spec to a
// Program (a flat state×event dispatch table of pre-compiled guard,
// assignment and output closures over a slot-indexed frame), and StepEv
// drives that table directly. The tree-walking expr.Eval path is not
// consulted at runtime; it remains as the reference semantics that the
// differential tests compare against.
//
// Machine is not safe for concurrent use; drive each instance from one
// goroutine (or the deterministic simulator's event loop).
type Machine struct {
	prog     *Program
	stateIdx int
	frame    *expr.Frame
	scratch  []expr.Value // simultaneous-assignment staging, len maxAssigns

	// Frame-path output staging (StepEv): one preallocated frame per
	// compiled output op, and a reused result slice.
	outFrames []*expr.Frame
	outBuf    []FrameOutput
}

// NewMachine checks the spec, compiles it, and instantiates it in its
// initial state. Specs with check errors are refused: execution is only
// defined for specs whose soundness and completeness have been
// established.
func NewMachine(spec *Spec) (*Machine, error) {
	prog, err := CompileSpec(spec)
	if err != nil {
		return nil, err
	}
	return prog.NewMachine(), nil
}

// NewMachineFromChecked instantiates a machine for a spec already known
// to pass Check; the caller supplies the report as evidence.
func NewMachineFromChecked(spec *Spec, report *Report) (*Machine, error) {
	prog, err := CompileSpecFromChecked(spec, report)
	if err != nil {
		return nil, err
	}
	return prog.NewMachine(), nil
}

// resetVars loads initial variable values and clears the parameter region.
func (m *Machine) resetVars() {
	p := m.prog
	for i := 0; i < p.nVars; i++ {
		m.frame.Set(i, p.varInit[i])
	}
	for i := p.nVars; i < p.frameSize; i++ {
		m.frame.Set(i, expr.Value{})
	}
	m.stateIdx = p.initIdx
}

// Spec returns the machine's specification.
func (m *Machine) Spec() *Spec { return m.prog.spec }

// Program returns the compiled program the machine executes.
func (m *Machine) Program() *Program { return m.prog }

// State returns the current state name.
func (m *Machine) State() string { return m.prog.states[m.stateIdx] }

// InFinal reports whether the machine is in a final state.
func (m *Machine) InFinal() bool { return m.prog.finals[m.stateIdx] }

// Var returns the current value of a machine variable.
func (m *Machine) Var(name string) (expr.Value, bool) {
	slot, ok := m.prog.varSlots[name]
	if !ok {
		return expr.Value{}, false
	}
	return m.frame.Get(slot), true
}

// Clone returns an independent copy of the machine (used by the model
// checker to branch the state space). The compiled program is shared —
// it is immutable after compilation.
func (m *Machine) Clone() *Machine {
	frame := expr.NewFrame(m.prog.frameSize)
	for i := 0; i < m.prog.frameSize; i++ {
		frame.Set(i, m.frame.Get(i))
	}
	return &Machine{
		prog:      m.prog,
		stateIdx:  m.stateIdx,
		frame:     frame,
		scratch:   make([]expr.Value, m.prog.maxAssigns),
		outFrames: newOutputFrames(m.prog),
		outBuf:    make([]FrameOutput, 0, m.prog.maxOutputs),
	}
}

// Reset returns the machine to its initial state and variable values.
func (m *Machine) Reset() { m.resetVars() }

// StateKey returns a deterministic hash key of (state, vars) for state-
// space exploration.
func (m *Machine) StateKey() string {
	key := m.prog.states[m.stateIdx]
	for i, name := range m.prog.varNames {
		key += "|" + name + "=" + m.frame.Get(i).HashKey()
	}
	return key
}

// FrameOutput is a message emitted by a fired transition: field values
// in the message's canonical field-order slots, ready for a wire
// program's AppendEncode. The frame is machine-owned and reused — it is
// valid only until the machine's next StepEv.
type FrameOutput struct {
	Message string
	Shape   *expr.MsgShape
	Frame   *expr.Frame
}

// FrameResult describes the effect of one StepEv call. Outputs aliases a
// machine-owned slice and frames, valid until the next StepEv.
type FrameResult struct {
	// From and To are the machine states before and after the step.
	From, To string
	// Fired is the transition that fired (nil when Ignored or Rejected).
	Fired *Transition
	// Outputs are the messages emitted by the fired transition.
	Outputs []FrameOutput
	// Ignored is true when the event was declared-ignored in this state.
	Ignored bool
	// Rejected is true when transitions exist for (state, event) but no
	// guard held. Rejection is a *defined* outcome (the receiver in §3.4
	// "will reject a packet" whose sequence number does not match).
	Rejected bool
}

// EventID resolves an event name for StepEv (see Program.EventID).
func (m *Machine) EventID(name string) (EventID, bool) { return m.prog.EventID(name) }

// Executable reports whether ev is handled or declared ignored in the
// current state, read from the compiled dispatch row: exactly the events
// StepEv accepts without ErrInvalidTransition. It is the
// table-lookup form of asking Spec.TransitionsFrom and Spec.Ignored. An
// out-of-range id is not executable.
func (m *Machine) Executable(ev EventID) bool {
	p := m.prog
	if ev < 0 || int(ev) >= p.numEvents {
		return false
	}
	row := &p.rows[m.stateIdx*p.numEvents+int(ev)]
	return len(row.ts) > 0 || row.ignored
}

// StepEv delivers an event to the machine. The event is named by a
// pre-resolved EventID and the arguments bind positionally to its
// declared parameters; fired outputs are written into preallocated slot
// frames, so the steady-state packet loop neither hashes a string nor
// allocates.
//
// Semantics: the transitions declared for (state, event) are tried in
// declaration order; the first whose guard holds fires. Firing evaluates
// all assignment right-hand sides against the *pre*-state (simultaneous
// assignment), applies them, evaluates outputs, and moves to the target
// state. If no transition is declared and the event is not ignored,
// StepEv returns ErrInvalidTransition.
func (m *Machine) StepEv(ev EventID, args ...expr.Value) (FrameResult, error) {
	p := m.prog
	if ev < 0 || int(ev) >= len(p.events) {
		return FrameResult{}, fmt.Errorf("machine %s: %w: event id %d", p.spec.Name, ErrUnknownEvent, ev)
	}
	ce := &p.events[ev]
	if len(args) != len(ce.params) {
		return FrameResult{}, fmt.Errorf("machine %s: event %s: %w: got %d arguments, want %d",
			p.spec.Name, ce.ev.Name, ErrBadArg, len(args), len(ce.params))
	}
	for i := range ce.params {
		param := &ce.params[i]
		if !kindMatches(param.typ, args[i]) {
			return FrameResult{}, fmt.Errorf("machine %s: event %s: %w: %q has kind %s, want %s",
				p.spec.Name, ce.ev.Name, ErrBadArg, param.name, args[i].Kind(), param.typ)
		}
		m.frame.Set(param.slot, args[i])
	}

	state := p.states[m.stateIdx]
	res := FrameResult{From: state, To: state}
	row := &p.rows[m.stateIdx*p.numEvents+int(ev)]
	if len(row.ts) == 0 {
		if row.ignored {
			res.Ignored = true
			return res, nil
		}
		return FrameResult{}, fmt.Errorf("machine %s: %w: event %q in state %q",
			p.spec.Name, ErrInvalidTransition, ce.ev.Name, state)
	}
	for i := range row.ts {
		ct := &row.ts[i]
		if ct.guard != nil {
			hold, err := ct.guard(m.frame)
			if err != nil {
				return FrameResult{}, fmt.Errorf("machine %s: guard of %s: %w", p.spec.Name, ct.t.String(), err)
			}
			if !hold {
				continue
			}
		}
		return m.fire(ct, res)
	}
	res.Rejected = true
	return res, nil
}

// fire applies a transition whose guard held. Assignment right-hand sides
// and outputs are evaluated against the pre-state — outputs describe the
// packet being sent *by* this transition — and outputs are staged in the
// machine's reusable frames before the assignments apply.
func (m *Machine) fire(ct *compiledTransition, res FrameResult) (FrameResult, error) {
	p := m.prog
	for i := range ct.assigns {
		a := &ct.assigns[i]
		v, err := a.rhs(m.frame)
		if err != nil {
			return FrameResult{}, fmt.Errorf("machine %s: assign %s: %w", p.spec.Name, a.target, err)
		}
		m.scratch[i] = coerce(v, a.typ)
	}
	m.outBuf = m.outBuf[:0]
	for i := range ct.outputs {
		o := &ct.outputs[i]
		of := m.outFrames[o.frameIdx]
		for j := 0; j < o.shape.NumFields(); j++ {
			of.Set(j, expr.Value{}) // undeclared fields read as missing
		}
		for j := range o.exprs {
			v, err := o.exprs[j](m.frame)
			if err != nil {
				return FrameResult{}, fmt.Errorf("machine %s: output %s field %s: %w",
					p.spec.Name, o.message, o.names[j], err)
			}
			of.Set(o.slots[j], v)
		}
		m.outBuf = append(m.outBuf, FrameOutput{Message: o.message, Shape: o.shape, Frame: of})
	}
	for i := range ct.assigns {
		m.frame.Set(ct.assigns[i].slot, m.scratch[i])
	}
	m.stateIdx = ct.toIdx
	res.To = p.states[ct.toIdx]
	res.Fired = ct.t
	res.Outputs = m.outBuf
	return res, nil
}

func kindMatches(t expr.Type, v expr.Value) bool {
	if t.Kind != v.Kind() {
		return false
	}
	if t.Kind == expr.KindMsg {
		return t.MsgName == v.MsgName()
	}
	return true
}

func coerce(v expr.Value, t expr.Type) expr.Value {
	if t.Kind == expr.KindUint && v.Kind() == expr.KindUint {
		return v.WithBits(t.Bits)
	}
	return v
}
