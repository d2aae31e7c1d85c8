package fsm

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// Severity classifies check findings.
type Severity int

// Severities.
const (
	SevError Severity = iota + 1
	SevWarning
)

// String returns "error" or "warning".
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Issue classes, mirroring the properties §3.3 of the paper asks for.
const (
	ClassStructure    = "structure"    // malformed spec
	ClassSoundness    = "soundness"    // transition references / typing
	ClassCompleteness = "completeness" // unhandled (state, event) pairs
	ClassDeterminism  = "determinism"  // ambiguous transition choice
	ClassReachability = "reachability" // states unreachable from init
	ClassLiveness     = "liveness"     // no path to a consistent end state
)

// Issue is a single finding of the static checker.
type Issue struct {
	Severity   Severity
	Class      string
	State      string
	Event      string
	Transition string
	Msg        string
}

// String renders the issue.
func (i Issue) String() string {
	loc := ""
	if i.State != "" {
		loc += " state=" + i.State
	}
	if i.Event != "" {
		loc += " event=" + i.Event
	}
	if i.Transition != "" {
		loc += " transition=" + i.Transition
	}
	return fmt.Sprintf("%s[%s]%s: %s", i.Severity, i.Class, loc, i.Msg)
}

// Report is the result of statically checking a Spec.
type Report struct {
	Spec   string
	Issues []Issue
}

// OK reports whether the spec has no errors (warnings allowed).
func (r *Report) OK() bool {
	for _, i := range r.Issues {
		if i.Severity == SevError {
			return false
		}
	}
	return true
}

// Errors returns only the error-severity issues.
func (r *Report) Errors() []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Severity == SevError {
			out = append(out, i)
		}
	}
	return out
}

// Warnings returns only the warning-severity issues.
func (r *Report) Warnings() []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Severity == SevWarning {
			out = append(out, i)
		}
	}
	return out
}

// CheckSpecError is returned when a spec with check errors is used where a
// checked spec is required (NewMachine, codegen).
type CheckSpecError struct {
	Report *Report
}

// Error implements error.
func (e *CheckSpecError) Error() string {
	errs := e.Report.Errors()
	return fmt.Sprintf("spec %s has %d check error(s); first: %s",
		e.Report.Spec, len(errs), errs[0].String())
}

// Check statically verifies the spec. It never mutates the spec. The
// returned report contains every finding; a spec is usable for execution
// and code generation iff Report.OK().
func Check(s *Spec) *Report {
	c := &checker{spec: s, report: &Report{Spec: s.Name}}
	c.structure()
	if len(c.report.Errors()) > 0 {
		// Structural breakage makes the deeper checks meaningless.
		return c.report
	}
	c.soundness()
	c.completeness()
	c.determinism()
	c.reachability()
	c.liveness()
	return c.report
}

type checker struct {
	spec   *Spec
	report *Report
}

func (c *checker) add(sev Severity, class, state, event, trans, format string, args ...any) {
	c.report.Issues = append(c.report.Issues, Issue{
		Severity: sev, Class: class, State: state, Event: event, Transition: trans,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (c *checker) errf(class, state, event, trans, format string, args ...any) {
	c.add(SevError, class, state, event, trans, format, args...)
}

func (c *checker) warnf(class, state, event, trans, format string, args ...any) {
	c.add(SevWarning, class, state, event, trans, format, args...)
}

func (c *checker) structure() {
	s := c.spec
	if s.Name == "" {
		c.errf(ClassStructure, "", "", "", "machine must have a name")
	}
	if len(s.States) == 0 {
		c.errf(ClassStructure, "", "", "", "machine must declare at least one state")
		return
	}
	inits := 0
	seenStates := make(map[string]bool, len(s.States))
	for _, st := range s.States {
		if st.Name == "" {
			c.errf(ClassStructure, "", "", "", "state with empty name")
			continue
		}
		if seenStates[st.Name] {
			c.errf(ClassStructure, st.Name, "", "", "duplicate state name")
		}
		seenStates[st.Name] = true
		if st.Init {
			inits++
		}
	}
	if inits != 1 {
		c.errf(ClassStructure, "", "", "", "machine must declare exactly one initial state, got %d", inits)
	}
	seenEvents := make(map[string]bool, len(s.Events))
	for _, ev := range s.Events {
		if ev.Name == "" {
			c.errf(ClassStructure, "", "", "", "event with empty name")
			continue
		}
		if seenEvents[ev.Name] {
			c.errf(ClassStructure, "", ev.Name, "", "duplicate event name")
		}
		seenEvents[ev.Name] = true
		seenParams := make(map[string]bool, len(ev.Params))
		for _, p := range ev.Params {
			if seenParams[p.Name] {
				c.errf(ClassStructure, "", ev.Name, "", "duplicate parameter %q", p.Name)
			}
			seenParams[p.Name] = true
			if p.Type.Kind == expr.KindMsg {
				if _, ok := s.Messages[p.Type.MsgName]; !ok {
					c.errf(ClassStructure, "", ev.Name, "", "parameter %q references unknown message %q",
						p.Name, p.Type.MsgName)
				}
			}
		}
	}
	seenVars := make(map[string]bool, len(s.Vars))
	for _, v := range s.Vars {
		if v.Name == "" {
			c.errf(ClassStructure, "", "", "", "variable with empty name")
			continue
		}
		if seenVars[v.Name] {
			c.errf(ClassStructure, "", "", "", "duplicate variable %q", v.Name)
		}
		seenVars[v.Name] = true
		if v.Init.IsValid() && !v.Type.AssignableFrom(typeOfValue(v.Init)) {
			c.errf(ClassStructure, "", "", "", "variable %q: init value kind %s does not match type %s",
				v.Name, v.Init.Kind(), v.Type)
		}
	}
	// Every referenced message must itself compile.
	for name, m := range s.Messages {
		if _, err := wire.Compile(m); err != nil {
			c.errf(ClassStructure, "", "", "", "message %q: %v", name, err)
		}
	}
}

func (c *checker) soundness() {
	s := c.spec
	for i := range s.Transitions {
		t := &s.Transitions[i]
		label := transLabel(t, i)
		from, okFrom := s.StateByName(t.From)
		if !okFrom {
			c.errf(ClassSoundness, t.From, t.Event, label, "transition from undeclared state %q", t.From)
		}
		if _, ok := s.StateByName(t.To); !ok {
			c.errf(ClassSoundness, t.To, t.Event, label, "transition to undeclared state %q", t.To)
		}
		ev, okEv := s.EventByName(t.Event)
		if !okEv {
			c.errf(ClassSoundness, t.From, t.Event, label, "transition on undeclared event %q", t.Event)
		}
		if okFrom && from.Final {
			c.errf(ClassSoundness, t.From, t.Event, label,
				"final state %q must not have outgoing transitions", t.From)
		}
		if !okFrom || !okEv {
			continue
		}
		env := s.env(ev)
		if t.Guard != nil {
			if err := expr.CheckBool(t.Guard, env); err != nil {
				c.errf(ClassSoundness, t.From, t.Event, label, "guard: %v", err)
			}
		}
		for _, a := range t.Assigns {
			v, ok := s.VarByName(a.Var)
			if !ok {
				c.errf(ClassSoundness, t.From, t.Event, label, "assignment to undeclared variable %q", a.Var)
				continue
			}
			at, err := expr.Check(a.Expr, env)
			if err != nil {
				c.errf(ClassSoundness, t.From, t.Event, label, "assignment to %q: %v", a.Var, err)
				continue
			}
			if !v.Type.AssignableFrom(at) {
				c.errf(ClassSoundness, t.From, t.Event, label,
					"assignment to %q: type %s not assignable to %s", a.Var, at, v.Type)
			}
		}
		for _, o := range t.Outputs {
			c.checkOutput(t, label, env, o)
		}
	}
	// Ignore declarations must reference real states/events and must not
	// overlap declared transitions (that would be ambiguous).
	for _, ig := range s.Ignores {
		if _, ok := s.StateByName(ig.State); !ok {
			c.errf(ClassSoundness, ig.State, ig.Event, "", "ignore in undeclared state %q", ig.State)
			continue
		}
		if _, ok := s.EventByName(ig.Event); !ok {
			c.errf(ClassSoundness, ig.State, ig.Event, "", "ignore of undeclared event %q", ig.Event)
			continue
		}
		if len(s.TransitionsFrom(ig.State, ig.Event)) > 0 {
			c.errf(ClassSoundness, ig.State, ig.Event, "",
				"event is both ignored and handled by a transition")
		}
	}
}

func (c *checker) checkOutput(t *Transition, label string, env expr.Env, o Output) {
	s := c.spec
	m, ok := s.Messages[o.Message]
	if !ok {
		c.errf(ClassSoundness, t.From, t.Event, label, "output of unknown message %q", o.Message)
		return
	}
	for i := range m.Fields {
		f := &m.Fields[i]
		e, supplied := o.Fields[f.Name]
		if f.Compute != nil {
			if supplied {
				c.errf(ClassSoundness, t.From, t.Event, label,
					"output %s: field %q is computed and must not be supplied", o.Message, f.Name)
			}
			continue
		}
		// Length fields used via LenField are auto-filled by the encoder.
		if !supplied {
			if isAutoLength(m, f.Name) {
				continue
			}
			c.errf(ClassSoundness, t.From, t.Event, label,
				"output %s: missing field %q", o.Message, f.Name)
			continue
		}
		et, err := expr.Check(e, env)
		if err != nil {
			c.errf(ClassSoundness, t.From, t.Event, label, "output %s field %q: %v", o.Message, f.Name, err)
			continue
		}
		if !f.Type().AssignableFrom(et) {
			c.errf(ClassSoundness, t.From, t.Event, label,
				"output %s field %q: type %s not assignable to %s", o.Message, f.Name, et, f.Type())
		}
	}
	for name := range o.Fields {
		if _, ok := m.Field(name); !ok {
			c.errf(ClassSoundness, t.From, t.Event, label,
				"output %s: unknown field %q", o.Message, name)
		}
	}
}

// isAutoLength reports whether the named field is the LenField length of
// some bytes field, in which case the encoder fills it automatically and
// outputs need not (and should not have to) supply it.
func isAutoLength(m *wire.Message, fieldName string) bool {
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Kind == wire.FieldBytes && f.LenKind == wire.LenField && f.LenField == fieldName {
			return true
		}
	}
	return false
}

func (c *checker) completeness() {
	s := c.spec
	for _, st := range s.States {
		if st.Final {
			continue
		}
		for _, ev := range s.Events {
			ts := s.TransitionsFrom(st.Name, ev.Name)
			if len(ts) == 0 {
				if !s.Ignored(st.Name, ev.Name) {
					c.errf(ClassCompleteness, st.Name, ev.Name, "",
						"event %q is not handled (and not declared ignored) in state %q", ev.Name, st.Name)
				}
				continue
			}
			allGuarded := true
			for _, t := range ts {
				if t.Guard == nil {
					allGuarded = false
					break
				}
			}
			if allGuarded {
				c.warnf(ClassCompleteness, st.Name, ev.Name, "",
					"all %d transition(s) are guarded; the event is rejected when no guard holds — add an unguarded fallback or an explicit ignore to silence", len(ts))
			}
		}
	}
}

func (c *checker) determinism() {
	s := c.spec
	type key struct{ state, event string }
	groups := make(map[key][]*Transition)
	order := make(map[key][]int)
	for i := range s.Transitions {
		t := &s.Transitions[i]
		k := key{t.From, t.Event}
		groups[k] = append(groups[k], t)
		order[k] = append(order[k], i)
	}
	for k, ts := range groups {
		unguarded := 0
		firstUnguarded := -1
		seenGuards := make(map[string]bool)
		for idx, t := range ts {
			if t.Guard == nil {
				unguarded++
				if firstUnguarded == -1 {
					firstUnguarded = idx
				}
				continue
			}
			g := t.Guard.String()
			if seenGuards[g] {
				c.errf(ClassDeterminism, k.state, k.event, transLabel(t, order[k][idx]),
					"duplicate guard %q: second transition can never fire", g)
			}
			seenGuards[g] = true
		}
		if unguarded > 1 {
			c.errf(ClassDeterminism, k.state, k.event, "",
				"%d unguarded transitions on the same (state, event): choice is ambiguous", unguarded)
		}
		if unguarded == 1 && firstUnguarded < len(ts)-1 {
			c.warnf(ClassDeterminism, k.state, k.event, "",
				"unguarded transition precedes guarded ones: the guards after it can never fire")
		}
	}
}

func (c *checker) reachability() {
	s := c.spec
	init := s.InitState()
	if init == "" {
		return
	}
	reachable := reachableStates(s, init)
	for _, st := range s.States {
		if !reachable[st.Name] {
			c.warnf(ClassReachability, st.Name, "", "",
				"state %q is unreachable from the initial state %q", st.Name, init)
		}
	}
}

func (c *checker) liveness() {
	s := c.spec
	var finals []string
	for _, st := range s.States {
		if st.Final {
			finals = append(finals, st.Name)
		}
	}
	if len(finals) == 0 {
		c.warnf(ClassLiveness, "", "", "",
			"no final state declared: consistent termination (§3.4 guarantee 4) cannot be checked")
		return
	}
	// Reverse reachability: which states can reach some final state?
	rev := make(map[string][]string)
	for i := range s.Transitions {
		t := &s.Transitions[i]
		rev[t.To] = append(rev[t.To], t.From)
	}
	canFinish := make(map[string]bool, len(s.States))
	queue := append([]string(nil), finals...)
	for _, f := range finals {
		canFinish[f] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, prev := range rev[cur] {
			if !canFinish[prev] {
				canFinish[prev] = true
				queue = append(queue, prev)
			}
		}
	}
	init := s.InitState()
	reachable := reachableStates(s, init)
	for _, st := range s.States {
		if reachable[st.Name] && !canFinish[st.Name] {
			c.errf(ClassLiveness, st.Name, "", "",
				"no path from state %q to any final state: execution could never end consistently", st.Name)
		}
	}
}

func reachableStates(s *Spec, init string) map[string]bool {
	reachable := map[string]bool{init: true}
	queue := []string{init}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := range s.Transitions {
			t := &s.Transitions[i]
			if t.From == cur && !reachable[t.To] {
				reachable[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	return reachable
}

func transLabel(t *Transition, idx int) string {
	if t.Name != "" {
		return t.Name
	}
	return fmt.Sprintf("#%d(%s--%s->%s)", idx, t.From, t.Event, t.To)
}

func typeOfValue(v expr.Value) expr.Type {
	switch v.Kind() {
	case expr.KindBool:
		return expr.TBool
	case expr.KindUint:
		return expr.TUint(v.Bits())
	case expr.KindBytes:
		return expr.TBytes
	case expr.KindString:
		return expr.TString
	case expr.KindMsg:
		return expr.TMsg(v.MsgName())
	default:
		return expr.Type{}
	}
}
