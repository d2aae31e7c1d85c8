// Package fsm implements protocol behaviour specifications: states,
// events, guarded transitions and variable updates — the behavioural half
// of the paper's DSL (§3.2 items ii and iii).
//
// A Spec is checked statically (Check) for the properties the paper wants
// from dependent types: soundness (every executable transition is
// declared and well-typed) and completeness (every state handles every
// event, or explicitly ignores it), plus determinism, reachability and
// consistent-termination diagnostics. Only checked specs can be
// instantiated as runtime machines (NewMachine) or compiled to Go code
// (internal/codegen), so execution is correct by construction with
// respect to the specification.
//
// Concurrency: Specs and compiled Programs are immutable and shareable
// across goroutines; a Machine is single-owner — exactly one goroutine
// (or simulator event loop) steps it.
package fsm

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// Var is a typed machine variable (e.g. the sequence number that
// parameterises the paper's `Ready seq` state).
type Var struct {
	Name string
	Type expr.Type
	// Init is the initial value. Zero-value-of-type is used when invalid.
	Init expr.Value
}

// State declares a machine state.
type State struct {
	Name string
	Doc  string
	// Init marks the (single) initial state.
	Init bool
	// Final marks an accepting terminal state; final states must have no
	// outgoing transitions and are exempt from completeness.
	Final bool
}

// Param is a typed event parameter.
type Param struct {
	Name string
	Type expr.Type
}

// Event declares an event the machine reacts to. Events may carry typed
// parameters, including message-typed parameters (a received packet).
type Event struct {
	Name   string
	Params []Param
}

// Assign is a variable update executed when a transition fires.
type Assign struct {
	Var  string
	Expr expr.Expr
}

// Output is a message emission executed when a transition fires: the
// named message is constructed with the given field expressions and
// handed to the environment (e.g. sent on the network).
type Output struct {
	Message string
	Fields  map[string]expr.Expr
}

// Transition is a guarded, effectful state transition:
//
//	on Event(state From) [if Guard] -> To [do assigns] [send outputs]
type Transition struct {
	Name    string // optional label for diagnostics
	From    string
	Event   string
	To      string
	Guard   expr.Expr // nil means always enabled
	Assigns []Assign
	Outputs []Output
}

// Ignore declares that an event is deliberately discarded in a state.
// Ignores exist so completeness can be checked without forcing vacuous
// self-loops (§3.3: "all valid transitions are handled").
type Ignore struct {
	State string
	Event string
}

// Spec is a complete machine specification.
type Spec struct {
	Name        string
	Vars        []Var
	States      []State
	Events      []Event
	Transitions []Transition
	Ignores     []Ignore
	// Messages are the wire messages referenced by message-typed event
	// parameters and by outputs, keyed by message name.
	Messages map[string]*wire.Message
}

// StateByName returns the named state declaration.
func (s *Spec) StateByName(name string) (*State, bool) {
	for i := range s.States {
		if s.States[i].Name == name {
			return &s.States[i], true
		}
	}
	return nil, false
}

// EventByName returns the named event declaration.
func (s *Spec) EventByName(name string) (*Event, bool) {
	for i := range s.Events {
		if s.Events[i].Name == name {
			return &s.Events[i], true
		}
	}
	return nil, false
}

// VarByName returns the named variable declaration.
func (s *Spec) VarByName(name string) (*Var, bool) {
	for i := range s.Vars {
		if s.Vars[i].Name == name {
			return &s.Vars[i], true
		}
	}
	return nil, false
}

// InitState returns the initial state name ("" if not declared).
func (s *Spec) InitState() string {
	for i := range s.States {
		if s.States[i].Init {
			return s.States[i].Name
		}
	}
	return ""
}

// TransitionsFrom returns the transitions leaving (state, event), in
// declaration order (which is also guard-evaluation order).
func (s *Spec) TransitionsFrom(state, event string) []*Transition {
	var out []*Transition
	for i := range s.Transitions {
		t := &s.Transitions[i]
		if t.From == state && t.Event == event {
			out = append(out, t)
		}
	}
	return out
}

// Ignored reports whether (state, event) is declared ignored.
func (s *Spec) Ignored(state, event string) bool {
	for i := range s.Ignores {
		if s.Ignores[i].State == state && s.Ignores[i].Event == event {
			return true
		}
	}
	return false
}

// env builds the typing environment for a transition: machine variables
// plus the event's parameters, with message fields resolvable.
func (s *Spec) env(ev *Event) expr.Env {
	vars := make(map[string]expr.Type, len(s.Vars)+len(ev.Params))
	for _, v := range s.Vars {
		vars[v.Name] = v.Type
	}
	for _, p := range ev.Params {
		vars[p.Name] = p.Type
	}
	fields := make(map[string]map[string]expr.Type, len(s.Messages))
	for name, m := range s.Messages {
		fields[name] = m.FieldTypes()
	}
	return expr.MapEnv{Vars: vars, Fields: fields}
}

// zeroValue returns the zero value of a type (for variable defaults).
func zeroValue(t expr.Type) expr.Value {
	switch t.Kind {
	case expr.KindBool:
		return expr.Bool(false)
	case expr.KindUint:
		return expr.Uint(0, t.Bits)
	case expr.KindBytes:
		return expr.Bytes(nil)
	case expr.KindString:
		return expr.Str("")
	default:
		return expr.Value{}
	}
}

// String renders a one-line summary of the transition.
func (t *Transition) String() string {
	s := fmt.Sprintf("%s: %s --%s--> %s", t.Name, t.From, t.Event, t.To)
	if t.Guard != nil {
		s += " if " + t.Guard.String()
	}
	return s
}
