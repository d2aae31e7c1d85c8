// Package testgen implements the paper's inline-testing hook (§2.3):
// "The DSL approach described here potentially allows automatic
// construction of (at least some) behavioural test cases."
//
// Given a statically checked machine spec, Generate explores the
// machine's concrete state space with a small, guard-aware argument
// domain and derives a behavioural test suite: one firing case per
// reachable transition, plus guard-rejection and explicit-ignore cases.
// Run replays a suite against a fresh machine and verifies every
// expectation, so the suite doubles as a regression harness for the spec
// — experiment E9 reports the counts and transition coverage.
//
// Generation is pure — spec in, suite out — so concurrent generation
// over distinct specs is safe.
package testgen

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/genrt"
	"protodsl/internal/wire"
)

// Kind classifies generated cases.
type Kind int

// Case kinds.
const (
	// KindFire: the trigger fires a specific transition.
	KindFire Kind = iota + 1
	// KindReject: the trigger is rejected (guards exist, none hold).
	KindReject
	// KindIgnore: the trigger is declared-ignored.
	KindIgnore
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFire:
		return "fire"
	case KindReject:
		return "reject"
	case KindIgnore:
		return "ignore"
	default:
		return "unknown"
	}
}

// Step is one event delivery.
type Step struct {
	Event string
	Args  map[string]expr.Value
}

// Case is one generated behavioural test.
type Case struct {
	Name string
	Kind Kind
	// Setup drives a fresh machine from its initial state to the case's
	// source state; every setup step fires.
	Setup []Step
	// Trigger is the event under test.
	Trigger Step
	// ExpectFrom is the machine state when the trigger is delivered.
	ExpectFrom string
	// ExpectTo is the state after the trigger (KindFire only).
	ExpectTo string
	// ExpectTransition is the fired transition's name (KindFire only).
	ExpectTransition string
}

// Suite is a generated test suite.
type Suite struct {
	Cases              []Case
	TransitionsTotal   int
	TransitionsCovered int
}

// Coverage returns the fraction of spec transitions exercised by a
// KindFire case.
func (s *Suite) Coverage() float64 {
	if s.TransitionsTotal == 0 {
		return 0
	}
	return float64(s.TransitionsCovered) / float64(s.TransitionsTotal)
}

// Count returns the number of cases of the given kind.
func (s *Suite) Count(k Kind) int {
	n := 0
	for _, c := range s.Cases {
		if c.Kind == k {
			n++
		}
	}
	return n
}

// Options bounds generation.
type Options struct {
	// MaxStates bounds distinct concrete machine states explored
	// (0 = 4096).
	MaxStates int
}

// Generate explores the checked spec and derives its behavioural suite.
func Generate(spec *fsm.Spec, opts Options) (*Suite, error) {
	report := fsm.Check(spec)
	if !report.OK() {
		return nil, &fsm.CheckSpecError{Report: report}
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 4096
	}

	init, err := fsm.NewMachineFromChecked(spec, report)
	if err != nil {
		return nil, err
	}

	suite := &Suite{TransitionsTotal: len(spec.Transitions)}
	firedSeen := make(map[string]bool)     // transition label
	rejectSeen := make(map[[2]string]bool) // (state, event)
	ignoreSeen := make(map[[2]string]bool) // (state, event)

	type node struct {
		m    *fsm.Machine
		path []Step
	}
	visited := map[string]bool{init.StateKey(): true}
	queue := []node{{m: init}}

	for len(queue) > 0 && len(visited) < opts.MaxStates {
		cur := queue[0]
		queue = queue[1:]
		if cur.m.InFinal() {
			continue // final states accept no events (checked property)
		}
		for _, ev := range spec.Events {
			for _, args := range argCandidates(spec, &ev, cur.m) {
				probe := cur.m.Clone()
				step := Step{Event: ev.Name, Args: args}
				res, err := deliver(probe, step)
				if err != nil {
					// Only possible for incomplete specs, which Check
					// rejected; surface as a generator bug.
					return nil, fmt.Errorf("testgen: %w", err)
				}
				switch {
				case res.Fired != nil:
					label := res.Fired.Name
					if label == "" {
						label = res.Fired.String()
					}
					if !firedSeen[label] {
						firedSeen[label] = true
						suite.Cases = append(suite.Cases, Case{
							Name:             fmt.Sprintf("%s/fire/%s", spec.Name, label),
							Kind:             KindFire,
							Setup:            clonePath(cur.path),
							Trigger:          step,
							ExpectFrom:       res.From,
							ExpectTo:         res.To,
							ExpectTransition: res.Fired.Name,
						})
						suite.TransitionsCovered++
					}
				case res.Rejected:
					key := [2]string{res.From, ev.Name}
					if !rejectSeen[key] {
						rejectSeen[key] = true
						suite.Cases = append(suite.Cases, Case{
							Name:       fmt.Sprintf("%s/reject/%s-%s", spec.Name, res.From, ev.Name),
							Kind:       KindReject,
							Setup:      clonePath(cur.path),
							Trigger:    step,
							ExpectFrom: res.From,
						})
					}
				case res.Ignored:
					key := [2]string{res.From, ev.Name}
					if !ignoreSeen[key] {
						ignoreSeen[key] = true
						suite.Cases = append(suite.Cases, Case{
							Name:       fmt.Sprintf("%s/ignore/%s-%s", spec.Name, res.From, ev.Name),
							Kind:       KindIgnore,
							Setup:      clonePath(cur.path),
							Trigger:    step,
							ExpectFrom: res.From,
						})
					}
				}
				if res.Fired != nil {
					key := probe.StateKey()
					if !visited[key] && len(visited) < opts.MaxStates {
						visited[key] = true
						queue = append(queue, node{m: probe, path: append(clonePath(cur.path), step)})
					}
				}
			}
		}
	}
	return suite, nil
}

// Run replays the suite against a fresh machine per case and verifies
// every expectation. It returns the first failure, nil when all pass.
func Run(spec *fsm.Spec, suite *Suite) error {
	for _, c := range suite.Cases {
		m, err := fsm.NewMachine(spec)
		if err != nil {
			return err
		}
		for i, s := range c.Setup {
			res, err := deliver(m, s)
			if err != nil {
				return fmt.Errorf("case %s: setup step %d: %w", c.Name, i, err)
			}
			if res.Fired == nil {
				return fmt.Errorf("case %s: setup step %d (%s) did not fire", c.Name, i, s.Event)
			}
		}
		if m.State() != c.ExpectFrom {
			return fmt.Errorf("case %s: setup ended in %s, want %s", c.Name, m.State(), c.ExpectFrom)
		}
		res, err := deliver(m, c.Trigger)
		if err != nil {
			return fmt.Errorf("case %s: trigger: %w", c.Name, err)
		}
		switch c.Kind {
		case KindFire:
			if res.Fired == nil {
				return fmt.Errorf("case %s: expected transition %q to fire", c.Name, c.ExpectTransition)
			}
			if res.Fired.Name != c.ExpectTransition {
				return fmt.Errorf("case %s: fired %q, want %q", c.Name, res.Fired.Name, c.ExpectTransition)
			}
			if m.State() != c.ExpectTo {
				return fmt.Errorf("case %s: ended in %s, want %s", c.Name, m.State(), c.ExpectTo)
			}
		case KindReject:
			if !res.Rejected {
				return fmt.Errorf("case %s: expected rejection, got %+v", c.Name, res)
			}
		case KindIgnore:
			if !res.Ignored {
				return fmt.Errorf("case %s: expected ignore, got %+v", c.Name, res)
			}
		}
	}
	return nil
}

// deliver steps m with s: the event resolved by name, the named
// arguments bound by position to the event's declared parameters.
func deliver(m *fsm.Machine, s Step) (fsm.FrameResult, error) {
	ev, ok := m.EventID(s.Event)
	if !ok {
		return fsm.FrameResult{}, fmt.Errorf("machine %s: %w: %q", m.Spec().Name, fsm.ErrUnknownEvent, s.Event)
	}
	params := m.Program().EventAt(int(ev)).Params
	args := make([]expr.Value, len(params))
	for i, p := range params {
		v, ok := s.Args[p.Name]
		if !ok {
			return fsm.FrameResult{}, fmt.Errorf("machine %s: event %s: %w: missing %q",
				m.Spec().Name, s.Event, fsm.ErrBadArg, p.Name)
		}
		args[i] = v
	}
	if len(s.Args) != len(params) {
		return fsm.FrameResult{}, fmt.Errorf("machine %s: event %s: %w: %d arguments for %d parameters",
			m.Spec().Name, s.Event, fsm.ErrBadArg, len(s.Args), len(params))
	}
	return m.StepEv(ev, args...)
}

// FlatMachine adapts an AOT-generated flat machine (internal/arq/gen
// style) to suite replay: the adapter dispatches an event name plus expr
// argument values to the machine's typed per-event methods and reports
// the genrt outcome. Implementations live next to the generated code,
// where the event signatures are known.
type FlatMachine interface {
	// Reset returns the machine to its initial state and variables.
	Reset()
	// StateName names the current state (matches the spec's state names).
	StateName() string
	// Deliver dispatches one event by name. The error reports argument
	// conversion or evaluation failures, not rejection/ignoring — those
	// are outcomes.
	Deliver(event string, args map[string]expr.Value) (genrt.StepOutcome, error)
	// TransitionName names a fired outcome (outcome.Fired() only).
	TransitionName(genrt.StepOutcome) string
}

// RunFlat replays the suite against a generated flat machine, verifying
// the same expectations as Run: the generated dispatch tables must agree
// with the interpreted spec on every fired transition, rejection and
// ignore — the behavioural twin of the codegen differential tests.
func RunFlat(suite *Suite, flat FlatMachine) error {
	for _, c := range suite.Cases {
		flat.Reset()
		for i, s := range c.Setup {
			out, err := flat.Deliver(s.Event, s.Args)
			if err != nil {
				return fmt.Errorf("case %s: setup step %d: %w", c.Name, i, err)
			}
			if !out.Fired() {
				return fmt.Errorf("case %s: setup step %d (%s) did not fire (outcome %d)", c.Name, i, s.Event, out)
			}
		}
		if flat.StateName() != c.ExpectFrom {
			return fmt.Errorf("case %s: setup ended in %s, want %s", c.Name, flat.StateName(), c.ExpectFrom)
		}
		out, err := flat.Deliver(c.Trigger.Event, c.Trigger.Args)
		if err != nil {
			return fmt.Errorf("case %s: trigger: %w", c.Name, err)
		}
		switch c.Kind {
		case KindFire:
			if !out.Fired() {
				return fmt.Errorf("case %s: expected transition %q to fire, outcome %d", c.Name, c.ExpectTransition, out)
			}
			if got := flat.TransitionName(out); got != c.ExpectTransition {
				return fmt.Errorf("case %s: fired %q, want %q", c.Name, got, c.ExpectTransition)
			}
			if flat.StateName() != c.ExpectTo {
				return fmt.Errorf("case %s: ended in %s, want %s", c.Name, flat.StateName(), c.ExpectTo)
			}
		case KindReject:
			if out != genrt.StepRejected {
				return fmt.Errorf("case %s: expected rejection, outcome %d", c.Name, out)
			}
		case KindIgnore:
			if out != genrt.StepIgnored {
				return fmt.Errorf("case %s: expected ignore, outcome %d", c.Name, out)
			}
		}
	}
	return nil
}

// EnvArgs exposes the generator's guard-aware argument domain for one
// event against a fresh machine — the verification gate uses it to build
// closed-system stimulus domains for arbitrary specs.
func EnvArgs(spec *fsm.Spec, ev *fsm.Event) ([]map[string]expr.Value, error) {
	m, err := fsm.NewMachine(spec)
	if err != nil {
		return nil, err
	}
	return argCandidates(spec, ev, m), nil
}

func clonePath(p []Step) []Step {
	out := make([]Step, len(p))
	copy(out, p)
	return out
}

// argCandidates builds the guard-aware argument domain for an event in
// the machine's current variable context: small boundary values plus the
// machine's own variable values (so equality guards like `p.seq == seq`
// get both a matching and a mismatching candidate).
func argCandidates(spec *fsm.Spec, ev *fsm.Event, m *fsm.Machine) []map[string]expr.Value {
	if len(ev.Params) == 0 {
		return []map[string]expr.Value{nil}
	}
	perParam := make([][]expr.Value, len(ev.Params))
	for i, p := range ev.Params {
		perParam[i] = valueCandidates(spec, p.Type, m)
	}
	// Cartesian product, bounded (params are few and domains small).
	out := []map[string]expr.Value{{}}
	for i, p := range ev.Params {
		var next []map[string]expr.Value
		for _, partial := range out {
			for _, v := range perParam[i] {
				args := make(map[string]expr.Value, len(partial)+1)
				for k, pv := range partial {
					args[k] = pv
				}
				args[p.Name] = v
				next = append(next, args)
			}
		}
		out = next
	}
	return out
}

func valueCandidates(spec *fsm.Spec, t expr.Type, m *fsm.Machine) []expr.Value {
	switch t.Kind {
	case expr.KindBool:
		return []expr.Value{expr.Bool(false), expr.Bool(true)}
	case expr.KindBytes:
		return []expr.Value{expr.Bytes(nil), expr.Bytes([]byte{1, 2, 3})}
	case expr.KindString:
		return []expr.Value{expr.Str(""), expr.Str("x")}
	case expr.KindUint:
		return uintCandidates(t.Bits, m)
	case expr.KindMsg:
		return msgCandidates(spec, t.MsgName, m)
	default:
		return []expr.Value{}
	}
}

func uintCandidates(bits int, m *fsm.Machine) []expr.Value {
	maxV := uint64(1)<<uint(normBits(bits)) - 1
	if normBits(bits) == 64 {
		maxV = ^uint64(0)
	}
	seen := map[uint64]bool{}
	var out []expr.Value
	add := func(v uint64) {
		v &= maxV
		if !seen[v] {
			seen[v] = true
			out = append(out, expr.Uint(v, bits))
		}
	}
	add(0)
	add(1)
	add(maxV)
	for i := range m.Spec().Vars {
		if v := m.VarSlot(i); v.Kind() == expr.KindUint {
			add(v.AsUint())
			add(v.AsUint() + 1)
		}
	}
	return out
}

// msgCandidates builds message values: an all-zero baseline plus, for
// every uint field, variants set to the interesting values.
func msgCandidates(spec *fsm.Spec, msgName string, m *fsm.Machine) []expr.Value {
	msg, ok := spec.Messages[msgName]
	if !ok {
		return nil
	}
	base := make(map[string]expr.Value, len(msg.Fields))
	for i := range msg.Fields {
		f := &msg.Fields[i]
		if f.Kind == wire.FieldUint {
			base[f.Name] = expr.Uint(0, f.Bits)
		} else {
			base[f.Name] = expr.Bytes(nil)
		}
	}
	out := []expr.Value{expr.Msg(msgName, base)}
	for i := range msg.Fields {
		f := &msg.Fields[i]
		if f.Kind != wire.FieldUint {
			continue
		}
		for _, v := range uintCandidates(f.Bits, m) {
			if v.AsUint() == 0 {
				continue // baseline already has it
			}
			variant := make(map[string]expr.Value, len(base))
			for k, bv := range base {
				variant[k] = bv
			}
			variant[f.Name] = v
			out = append(out, expr.Msg(msgName, variant))
		}
	}
	return out
}

func normBits(bits int) int {
	switch {
	case bits <= 8:
		return 8
	case bits <= 16:
		return 16
	case bits <= 32:
		return 32
	default:
		return 64
	}
}
