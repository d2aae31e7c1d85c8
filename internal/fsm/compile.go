package fsm

import (
	"fmt"
	"sort"

	"protodsl/internal/expr"
)

// This file implements the compiled execution engine for behaviour
// specifications. CompileSpec lowers a checked Spec into a Program: a
// flat, state×event-indexed dispatch table whose guards, assignment
// right-hand sides and output field expressions are all pre-compiled
// (expr.Compile) closures over a slot-indexed frame. The Machine
// interpreter executes Programs directly — a StepEv is an integer table
// lookup plus closure calls, with no map-backed scope resolution and no
// per-step allocations on the hot path.

// Program is a compiled behaviour specification, ready for execution.
type Program struct {
	spec *Spec

	// State table.
	states   []string
	stateIdx map[string]int
	initIdx  int
	finals   []bool

	// Event table. Event i's parameters live at frame slots
	// nVars..nVars+len(params)-1 (the parameter region is shared between
	// events; only the current event's slots are live during a step).
	events    []compiledEvent
	eventIdx  map[string]int
	numEvents int

	// Variable slots 0..nVars-1, in Spec.Vars declaration order.
	nVars    int
	varNames []string
	varTypes []expr.Type
	varInit  []expr.Value
	varSlots map[string]int

	frameSize  int
	maxAssigns int
	maxOutputs int // most outputs on any single transition

	// Canonical message shapes (field i at slot i), shared with the wire
	// programs so decoded frames index straight into compiled guards.
	shapes map[string]*expr.MsgShape
	// outputShapes[i] is the shape of the i-th compiled output op
	// program-wide; machines preallocate one frame per op.
	outputShapes []*expr.MsgShape

	// rows[state*numEvents+event] drives dispatch.
	rows []dispatchRow
}

// MsgShape returns the canonical shape compiled for the named wire
// message (nil if the spec does not declare it). Engines wrap decoded
// slot frames with exactly this shape (expr.FrameMsg) so the compiled
// guard fast path hits.
func (p *Program) MsgShape(name string) *expr.MsgShape { return p.shapes[name] }

// EventID identifies an event for the positional StepEv fast path.
type EventID int

// EventID resolves an event name once; engines cache the result and step
// with it so the per-packet path never hashes the event name.
func (p *Program) EventID(name string) (EventID, bool) {
	idx, ok := p.eventIdx[name]
	return EventID(idx), ok
}

type compiledEvent struct {
	ev     *Event
	params []compiledParam
}

type compiledParam struct {
	name string
	typ  expr.Type
	slot int
}

type dispatchRow struct {
	// ts are the transitions for this (state, event) in declaration
	// (guard-evaluation) order.
	ts []compiledTransition
	// ignored marks a declared ignore; only meaningful when ts is empty.
	ignored bool
}

type compiledTransition struct {
	t     *Transition
	guard func(*expr.Frame) (bool, error) // nil means always enabled
	toIdx int

	assigns []compiledAssign
	outputs []compiledOutput
}

type compiledAssign struct {
	slot   int
	typ    expr.Type
	rhs    expr.Compiled
	target string // variable name, for error context
}

type compiledOutput struct {
	message string
	names   []string
	exprs   []expr.Compiled

	// Frame path: slots[j] is the canonical field slot of names[j] in
	// shape, frameIdx indexes the machine's preallocated output frames.
	shape    *expr.MsgShape
	slots    []int
	frameIdx int
}

// CompileSpec checks the spec and compiles it to an executable Program.
// Specs with check errors are refused, exactly as NewMachine refuses
// them: compiled execution is only defined for verified specifications.
func CompileSpec(spec *Spec) (*Program, error) {
	report := Check(spec)
	if !report.OK() {
		return nil, &CheckSpecError{Report: report}
	}
	return compileChecked(spec), nil
}

// CompileSpecFromChecked compiles a spec already known to pass Check; the
// caller supplies the report as evidence (mirrors NewMachineFromChecked).
func CompileSpecFromChecked(spec *Spec, report *Report) (*Program, error) {
	if report == nil || report.Spec != spec.Name || !report.OK() {
		return nil, fmt.Errorf("spec %s: not accompanied by a passing check report", spec.Name)
	}
	return compileChecked(spec), nil
}

// compileChecked lowers a checked spec. It cannot fail: every name and
// expression the lowering touches has been verified by Check.
func compileChecked(spec *Spec) *Program {
	p := &Program{
		spec:      spec,
		stateIdx:  make(map[string]int, len(spec.States)),
		eventIdx:  make(map[string]int, len(spec.Events)),
		varSlots:  make(map[string]int, len(spec.Vars)),
		numEvents: len(spec.Events),
	}

	for i := range spec.States {
		st := &spec.States[i]
		p.stateIdx[st.Name] = i
		p.states = append(p.states, st.Name)
		p.finals = append(p.finals, st.Final)
		if st.Init {
			p.initIdx = i
		}
	}

	// Canonical shapes for the spec's wire messages: field i at slot i,
	// matching the frames the wire programs fill. Compiled field accesses
	// on message-typed variables and parameters resolve against these.
	p.shapes = make(map[string]*expr.MsgShape, len(spec.Messages))
	for name, m := range spec.Messages {
		fields := make([]string, len(m.Fields))
		for j := range m.Fields {
			fields[j] = m.Fields[j].Name
		}
		p.shapes[name] = expr.NewMsgShape(name, fields)
	}

	// Variable slots in declaration order.
	base := expr.NewScopeLayout()
	p.nVars = len(spec.Vars)
	for i := range spec.Vars {
		v := &spec.Vars[i]
		slot := base.Add(v.Name)
		p.varSlots[v.Name] = slot
		p.varNames = append(p.varNames, v.Name)
		p.varTypes = append(p.varTypes, v.Type)
		if v.Type.Kind == expr.KindMsg {
			if shape := p.shapes[v.Type.MsgName]; shape != nil {
				base.SetShape(v.Name, shape)
			}
		}
		init := v.Init
		if !init.IsValid() {
			init = zeroValue(v.Type)
		}
		p.varInit = append(p.varInit, init)
	}

	// Event parameter slots: a shared region after the variables. Layouts
	// are per event so a parameter may shadow a variable of the same name
	// (the parameter's fresh slot wins inside that event's expressions).
	maxParams := 0
	layouts := make([]*expr.ScopeLayout, len(spec.Events))
	for i := range spec.Events {
		ev := &spec.Events[i]
		layout := base.Clone()
		ce := compiledEvent{ev: ev}
		for j, param := range ev.Params {
			slot := p.nVars + j
			layout.Bind(param.Name, slot)
			if param.Type.Kind == expr.KindMsg {
				if shape := p.shapes[param.Type.MsgName]; shape != nil {
					layout.SetShape(param.Name, shape)
				}
			}
			ce.params = append(ce.params, compiledParam{name: param.Name, typ: param.Type, slot: slot})
		}
		if len(ev.Params) > maxParams {
			maxParams = len(ev.Params)
		}
		p.eventIdx[ev.Name] = i
		p.events = append(p.events, ce)
		layouts[i] = layout
	}
	p.frameSize = p.nVars + maxParams

	// The flat dispatch table.
	p.rows = make([]dispatchRow, len(spec.States)*p.numEvents)
	for i := range spec.Transitions {
		t := &spec.Transitions[i]
		from := p.stateIdx[t.From]
		evIdx := p.eventIdx[t.Event]
		layout := layouts[evIdx]

		ct := compiledTransition{t: t, toIdx: p.stateIdx[t.To]}
		if t.Guard != nil {
			ct.guard = expr.CompileBool(t.Guard, layout)
		}
		for _, a := range t.Assigns {
			decl, _ := spec.VarByName(a.Var)
			ct.assigns = append(ct.assigns, compiledAssign{
				slot:   p.varSlots[a.Var],
				typ:    decl.Type,
				rhs:    expr.Compile(a.Expr, layout),
				target: a.Var,
			})
		}
		if len(t.Assigns) > p.maxAssigns {
			p.maxAssigns = len(t.Assigns)
		}
		for _, o := range t.Outputs {
			co := compiledOutput{message: o.Message, shape: p.shapes[o.Message], frameIdx: len(p.outputShapes)}
			for _, name := range sortedFieldNames(o.Fields) {
				slot, _ := co.shape.Slot(name)
				co.names = append(co.names, name)
				co.exprs = append(co.exprs, expr.Compile(o.Fields[name], layout))
				co.slots = append(co.slots, slot)
			}
			p.outputShapes = append(p.outputShapes, co.shape)
			ct.outputs = append(ct.outputs, co)
		}
		if len(t.Outputs) > p.maxOutputs {
			p.maxOutputs = len(t.Outputs)
		}
		row := &p.rows[from*p.numEvents+evIdx]
		row.ts = append(row.ts, ct)
	}
	for i := range spec.Ignores {
		ig := &spec.Ignores[i]
		st, okS := p.stateIdx[ig.State]
		evIdx, okE := p.eventIdx[ig.Event]
		if okS && okE {
			p.rows[st*p.numEvents+evIdx].ignored = true
		}
	}
	return p
}

// Spec returns the specification the program was compiled from.
func (p *Program) Spec() *Spec { return p.spec }

// NewMachine instantiates the compiled program in its initial state.
func (p *Program) NewMachine() *Machine {
	m := &Machine{
		prog:      p,
		frame:     expr.NewFrame(p.frameSize),
		scratch:   make([]expr.Value, p.maxAssigns),
		outFrames: newOutputFrames(p),
		outBuf:    make([]FrameOutput, 0, p.maxOutputs),
	}
	m.resetVars()
	return m
}

// newOutputFrames preallocates one frame per compiled output op.
func newOutputFrames(p *Program) []*expr.Frame {
	frames := make([]*expr.Frame, len(p.outputShapes))
	for i, shape := range p.outputShapes {
		frames[i] = expr.NewFrame(shape.NumFields())
	}
	return frames
}

func sortedFieldNames(fields map[string]expr.Expr) []string {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
