// Package verify is an explicit-state model checker for systems of fsm
// machines connected by bounded channels.
//
// It exists as the paper's comparison baseline (§3.3): "The state machine
// representing a protocol may have a large number of states and
// transitions. Verifying the protocol requires exploring the entire state
// space." This checker does exactly that — breadth-first exploration of
// the product state space with invariant checking, deadlock detection and
// counter-example traces — so experiment E4 can measure how its cost
// scales with sequence-number space and channel capacity, against the
// near-constant cost of the spec-level static checks (fsm.Check) the DSL
// approach uses instead.
//
// Two engines share one move semantics (DESIGN.md §12):
//
//   - Explore is the production engine: a level-synchronised parallel
//     search over fixed-layout state records, deduplicated in a sharded
//     visited table. Its results are deterministic and identical
//     for any worker count.
//   - ExploreSequential is the reference engine: the original cloned-
//     machine BFS, kept as the independent oracle the differential tests
//     pin Explore against.
//
// Each call owns its worklist and visited set, so concurrent checks —
// even of the same system — are safe.
package verify

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// Route connects one machine's output messages to another machine's
// input event through a bounded (optionally lossy) channel.
type Route struct {
	// From is the index of the producing machine; Message selects which
	// of its outputs travel this route.
	From    int
	Message string
	// To is the consuming machine; the message is delivered as Event with
	// the message value bound to parameter Param.
	To    int
	Event string
	Param string
	// Capacity bounds the in-flight messages; sends into a full channel
	// drop the oldest (modelling overrun). Overruns are counted in
	// Result.Overruns and can be turned into violations with
	// Options.OverrunInvariant.
	Capacity int
	// Lossy adds a nondeterministic drop move for queued messages.
	Lossy bool
	// Reorder models a reordering network: any queued message — not just
	// the head — may be delivered (and, when Lossy, dropped) next. Off,
	// the channel is strict FIFO. Reordering channels are identified by
	// their multiset of in-flight messages, so permutations of the same
	// queue are one state.
	Reorder bool
}

// EnvEvent declares an environment stimulus: an event the surrounding
// world may raise at any time (timeouts, application sends), with a
// finite set of argument bindings to keep the state space enumerable.
type EnvEvent struct {
	Machine int
	Event   string
	// Args lists alternative argument bindings; nil or empty means the
	// event is raised once with no arguments.
	Args []map[string]expr.Value
}

// System is a closed composition of machines, routes and stimuli.
type System struct {
	Specs  []*fsm.Spec
	Routes []Route
	Env    []EnvEvent
}

// Invariant is a named safety property over global states: a check over
// the values of the uint variables it reads and the state names of the
// machines it reads. The package's constructors (StopAndWaitInvariant,
// GBNInvariant, SRInvariantW, HSInvariant) build every Invariant, and a
// search binds what it reads before exploring a state: an invariant that
// names a machine or variable the system lacks, or a variable that is not
// a uint, fails the search with an error.
type Invariant struct {
	Name   string
	vars   []varRef
	states []int
	check  func(u []uint64, states []string) error
}

// varRef names one machine's variable.
type varRef struct {
	machine int
	name    string
}

// readsInvariant builds an invariant: check over the listed variables'
// values and the listed machines' state names, in order.
func readsInvariant(name string, vars []varRef, states []int, check func(u []uint64, states []string) error) Invariant {
	return Invariant{Name: name, vars: vars, states: states, check: check}
}

// evalMachines checks the invariant on machines read by name, as the
// reference engine does; the system must have been bound by
// compileSystem.
func (inv *Invariant) evalMachines(ms []*fsm.Machine) error {
	u := make([]uint64, len(inv.vars))
	for i, v := range inv.vars {
		x, _ := ms[v.machine].Var(v.name)
		u[i] = x.AsUint()
	}
	st := make([]string, len(inv.states))
	for i, m := range inv.states {
		st[i] = ms[m].State()
	}
	return inv.check(u, st)
}

// Violation kinds.
const (
	ViolationInvariant = "invariant"
	ViolationDeadlock  = "deadlock"
	ViolationStep      = "step-error"
	ViolationOverrun   = "overrun"
)

// MoveKind classifies the nondeterministic choices of a state.
type MoveKind int

// Move kinds.
const (
	// MoveEnv raises an environment event.
	MoveEnv MoveKind = iota + 1
	// MoveDeliver delivers a queued message to its route's consumer.
	MoveDeliver
	// MoveDrop loses a queued message (lossy routes).
	MoveDrop
)

// Move is one nondeterministic choice: an environment event, a channel
// delivery, or a lossy drop. Moves are the structured representation of
// counter-example traces — Replay re-executes a move sequence.
type Move struct {
	Kind MoveKind
	// Env indexes System.Env (MoveEnv only); Machine, Event and ArgIdx
	// identify the stimulus for display.
	Env     int
	Machine int
	Event   string
	ArgIdx  int
	// Route indexes System.Routes (MoveDeliver, MoveDrop); QIdx selects
	// the queued message (always 0 for FIFO routes).
	Route int
	QIdx  int
}

// String renders the move in the trace syntax.
func (m Move) String() string {
	switch m.Kind {
	case MoveEnv:
		return fmt.Sprintf("env:%d.%s[%d]", m.Machine, m.Event, m.ArgIdx)
	case MoveDeliver:
		if m.QIdx > 0 {
			return fmt.Sprintf("deliver:route%d#%d", m.Route, m.QIdx)
		}
		return fmt.Sprintf("deliver:route%d", m.Route)
	case MoveDrop:
		if m.QIdx > 0 {
			return fmt.Sprintf("drop:route%d#%d", m.Route, m.QIdx)
		}
		return fmt.Sprintf("drop:route%d", m.Route)
	default:
		return "?"
	}
}

// Violation reports a property failure with a counter-example trace.
// The trace is built on demand: Moves and Trace reconstruct it from the
// search's parent links, so a caller that only counts violations or
// prints the first one pays for no other trace.
type Violation struct {
	Kind string
	Name string
	Msg  string
	// Depth is the BFS depth of the state the violation anchors at; both
	// engines find each violation at its minimal depth.
	Depth int

	// moves is ExploreSequential's eagerly built counter-example.
	moves []Move
	// Explore's violations instead keep the search's tracer, the anchor
	// state and the offending move of a step-error or overrun violation
	// (Kind 0 for the others).
	src   *tracer
	at    ref
	final Move
}

// Moves returns the replayable counter-example: the shortest move
// sequence from the initial state to the violating state (for step-error
// and overrun violations the final move is the one that misbehaved).
// Each call returns a fresh slice. Moves is safe for concurrent use.
func (v Violation) Moves() ([]Move, error) {
	if v.src == nil {
		return slices.Clone(v.moves), nil
	}
	return v.src.path(v.at, v.final)
}

// Trace renders Moves for display.
func (v Violation) Trace() ([]string, error) {
	moves, err := v.Moves()
	if err != nil {
		return nil, err
	}
	return describeMoves(moves), nil
}

// String renders the violation, building its trace.
func (v Violation) String() string {
	trace, err := v.Trace()
	if err != nil {
		return fmt.Sprintf("%s %s: %s (trace: %v)", v.Kind, v.Name, v.Msg, err)
	}
	return fmt.Sprintf("%s %s: %s (trace: %s)", v.Kind, v.Name, v.Msg, strings.Join(trace, " ; "))
}

// Options bounds and configures exploration.
type Options struct {
	// MaxStates bounds distinct states explored (0 = 1<<20). When the
	// bound is hit the result is Truncated and States == MaxStates; which
	// states beyond the bound went unexplored is unspecified.
	MaxStates int
	// Invariants are checked in every reached state.
	Invariants []Invariant
	// CheckDeadlock reports states with no state-changing moves where not
	// every machine is final.
	CheckDeadlock bool
	// StopAtFirstViolation ends exploration at the first finding. Explore
	// stops at the end of the BFS level that found it (keeping results
	// deterministic); ExploreSequential stops immediately.
	StopAtFirstViolation bool
	// Workers sets Explore's parallelism (0 = GOMAXPROCS). Results are
	// identical for every value. ExploreSequential ignores it.
	Workers int
	// OverrunInvariant, when set, is evaluated at every channel overrun
	// with the route index and the dropped message; a non-nil error
	// becomes a ViolationOverrun with the offending trace.
	OverrunInvariant func(route int, dropped expr.Value) error
}

// Stats reports search metrics (populated by both engines; the table and
// frontier figures are specific to Explore).
type Stats struct {
	// Workers actually used.
	Workers int
	// Depth is the deepest BFS level reached.
	Depth int
	// FrontierPeak is the high-water mark of a BFS level's state count.
	FrontierPeak int
	// DupHits counts moves that landed on an already-visited state.
	DupHits int
	// Elapsed is the wall-clock exploration time.
	Elapsed time.Duration
	// StatesPerSec is States / Elapsed.
	StatesPerSec float64
	// ArenaBytes is the total state-record bytes pooled in the visited
	// table (Explore only).
	ArenaBytes int
}

// Result summarises an exploration.
type Result struct {
	// States is the number of distinct global states reached.
	States int
	// Transitions is the number of moves executed.
	Transitions int
	// Violations found (empty means the explored space satisfies all
	// properties). Explore's violations build their traces from the
	// search's visited table, which stays reachable as long as they do.
	Violations []Violation
	// Truncated is true when MaxStates stopped exploration early — the
	// paper's point: "the model may be a simplified (and so unrealistic)
	// representation".
	Truncated bool
	// Overruns counts channel-overrun drops per route. Every visited
	// state's moves are applied exactly once, so the counts are
	// deterministic for untruncated runs.
	Overruns []uint64
	// Stats are the search metrics.
	Stats Stats
}

// boundSystem is a System compiled and bound for a search. Every name a
// search would otherwise look up while exploring is resolved here, once.
type boundSystem struct {
	progs  []*fsm.Program
	envs   []envBinding  // by System.Env index
	routes []fsm.EventID // by System.Routes index: the delivery event
	// invVars[i][j] is the variable index of the j-th variable the i-th
	// invariant reads.
	invVars [][]int
}

// envBinding is an environment event bound to its event id, with each
// of EnvEvent.Args in the event's parameter order.
type envBinding struct {
	ev   fsm.EventID
	args [][]expr.Value
}

// compileSystem validates the system and the invariants, compiles every
// spec and binds every name. A spec that fails fsm.Check is refused: the
// model checker verifies *checked* specs against system-level properties
// the static checker cannot see. So is a misbound system or invariant,
// with an error naming the machine and the event, parameter or variable,
// before any state is explored: an env event the machine does not
// declare, env arguments that are not exactly the event's parameters, a
// route whose Param and Message are not its event's sole parameter and
// type, and an invariant that reads a machine or variable the system
// lacks, or a variable that is not a uint.
func compileSystem(sys *System, invs []Invariant) (*boundSystem, error) {
	if len(sys.Specs) == 0 {
		return nil, errors.New("verify: system has no machines")
	}
	b := &boundSystem{
		progs:   make([]*fsm.Program, len(sys.Specs)),
		envs:    make([]envBinding, len(sys.Env)),
		routes:  make([]fsm.EventID, len(sys.Routes)),
		invVars: make([][]int, len(invs)),
	}
	for i, spec := range sys.Specs {
		report := fsm.Check(spec)
		if !report.OK() {
			return nil, &fsm.CheckSpecError{Report: report}
		}
		prog, err := fsm.CompileSpecFromChecked(spec, report)
		if err != nil {
			return nil, err
		}
		b.progs[i] = prog
	}
	inRange := func(mi int) bool { return mi >= 0 && mi < len(sys.Specs) }
	machine := func(mi int) string { return fmt.Sprintf("machine %d (%s)", mi, sys.Specs[mi].Name) }
	event := func(mi int, name string) (fsm.EventID, *fsm.Event, error) {
		id, ok := b.progs[mi].EventID(name)
		if !ok {
			return 0, nil, fmt.Errorf("%s declares no event %q", machine(mi), name)
		}
		ev, _ := sys.Specs[mi].EventByName(name)
		return id, ev, nil
	}
	for ri, r := range sys.Routes {
		if !inRange(r.From) || !inRange(r.To) {
			return nil, fmt.Errorf("verify: route %d references machine out of range: %+v", ri, r)
		}
		if r.Capacity < 1 {
			return nil, fmt.Errorf("verify: route %d (%s) needs capacity >= 1", ri, r.Message)
		}
		id, ev, err := event(r.To, r.Event)
		if err != nil {
			return nil, fmt.Errorf("verify: route %d: %w", ri, err)
		}
		if ps := ev.Params; len(ps) != 1 || ps[0].Name != r.Param ||
			ps[0].Type.Kind != expr.KindMsg || ps[0].Type.MsgName != r.Message {
			return nil, fmt.Errorf("verify: route %d: %s event %s takes (%s), not (%s %s)",
				ri, machine(r.To), r.Event, paramList(ps), r.Param, r.Message)
		}
		b.routes[ri] = id
	}
	for ei, env := range sys.Env {
		if !inRange(env.Machine) {
			return nil, fmt.Errorf("verify: env event %d (%s) references machine %d out of range", ei, env.Event, env.Machine)
		}
		id, ev, err := event(env.Machine, env.Event)
		if err != nil {
			return nil, fmt.Errorf("verify: env event %d: %w", ei, err)
		}
		named := env.Args
		if len(named) == 0 {
			named = []map[string]expr.Value{nil}
		}
		b.envs[ei] = envBinding{ev: id, args: make([][]expr.Value, len(named))}
		for ai, args := range named {
			if b.envs[ei].args[ai], err = positional(ev.Params, args); err != nil {
				return nil, fmt.Errorf("verify: env event %d: %s event %s, binding %d: %w",
					ei, machine(env.Machine), env.Event, ai, err)
			}
		}
	}
	for ii := range invs {
		inv := &invs[ii]
		if inv.check == nil {
			return nil, fmt.Errorf("verify: invariant %q has no check; build it with a constructor", inv.Name)
		}
		for _, vr := range inv.vars {
			if !inRange(vr.machine) {
				return nil, fmt.Errorf("verify: invariant %q reads machine %d, out of range", inv.Name, vr.machine)
			}
			vars := sys.Specs[vr.machine].Vars
			vi := slices.IndexFunc(vars, func(v fsm.Var) bool { return v.Name == vr.name })
			if vi < 0 {
				return nil, fmt.Errorf("verify: invariant %q: %s has no variable %q", inv.Name, machine(vr.machine), vr.name)
			}
			if t := vars[vi].Type; t.Kind != expr.KindUint {
				return nil, fmt.Errorf("verify: invariant %q: %s variable %q is %s, not a uint",
					inv.Name, machine(vr.machine), vr.name, t)
			}
			b.invVars[ii] = append(b.invVars[ii], vi)
		}
		for _, mi := range inv.states {
			if !inRange(mi) {
				return nil, fmt.Errorf("verify: invariant %q reads the state of machine %d, out of range", inv.Name, mi)
			}
		}
	}
	return b, nil
}

// positional orders named arguments by the event's parameters. The names
// must be exactly the parameters, each argument of its parameter's kind.
func positional(params []fsm.Param, named map[string]expr.Value) ([]expr.Value, error) {
	args := make([]expr.Value, len(params))
	for i, p := range params {
		v, ok := named[p.Name]
		if !ok {
			return nil, fmt.Errorf("no argument for parameter %q", p.Name)
		}
		if v.Kind() != p.Type.Kind || (p.Type.Kind == expr.KindMsg && v.MsgName() != p.Type.MsgName) {
			return nil, fmt.Errorf("argument %q is %s, want %s", p.Name, v.Kind(), p.Type)
		}
		args[i] = v
	}
	if len(named) == len(params) {
		return args, nil // every name matched a parameter
	}
	for _, name := range slices.Sorted(maps.Keys(named)) {
		if !slices.ContainsFunc(params, func(p fsm.Param) bool { return p.Name == name }) {
			return nil, fmt.Errorf("argument %q is not a parameter of (%s)", name, paramList(params))
		}
	}
	return args, nil
}

// paramList renders an event's parameters as "name type, ...".
func paramList(ps []fsm.Param) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.Name + " " + p.Type.String()
	}
	return strings.Join(parts, ", ")
}

func newMachines(progs []*fsm.Program) []*fsm.Machine {
	ms := make([]*fsm.Machine, len(progs))
	for i, p := range progs {
		ms[i] = p.NewMachine()
	}
	return ms
}

// deliverArgsFor prebuilds one single-key argument map per route, reused
// across deliveries (stepByName copies the bound value out before
// stepping).
func deliverArgsFor(sys *System) []map[string]expr.Value {
	out := make([]map[string]expr.Value, len(sys.Routes))
	for i, r := range sys.Routes {
		out[i] = map[string]expr.Value{r.Param: {}}
	}
	return out
}

// enabledMoves appends the nondeterministic choices of the given state
// to buf. The enumeration order is part of the checker's semantics: a
// state's move list is identical in both engines and across runs, and
// parent links store indexes into it.
func enabledMoves(sys *System, ms []*fsm.Machine, queues [][]expr.Value, buf []Move) []Move {
	moves := buf[:0]
	for ei := range sys.Env {
		env := &sys.Env[ei]
		m := ms[env.Machine]
		if len(m.Spec().TransitionsFrom(m.State(), env.Event)) == 0 &&
			!m.Spec().Ignored(m.State(), env.Event) {
			continue // event not executable here
		}
		n := len(env.Args)
		if n == 0 {
			n = 1
		}
		for i := 0; i < n; i++ {
			moves = append(moves, Move{
				Kind: MoveEnv, Env: ei, Machine: env.Machine, Event: env.Event, ArgIdx: i,
			})
		}
	}
	for ri := range sys.Routes {
		r := &sys.Routes[ri]
		q := queues[ri]
		if len(q) == 0 {
			continue
		}
		slots := 1
		if r.Reorder {
			slots = len(q)
		}
		dst := ms[r.To]
		if len(dst.Spec().TransitionsFrom(dst.State(), r.Event)) > 0 ||
			dst.Spec().Ignored(dst.State(), r.Event) {
			for qi := 0; qi < slots; qi++ {
				moves = append(moves, Move{Kind: MoveDeliver, Route: ri, QIdx: qi})
			}
		}
		if r.Lossy {
			for qi := 0; qi < slots; qi++ {
				moves = append(moves, Move{Kind: MoveDrop, Route: ri, QIdx: qi})
			}
		}
	}
	return moves
}

// applyResult reports what a move did.
type applyResult struct {
	// fired is true when a machine transition fired (machine state or
	// vars may have changed).
	fired bool
	// envNoop is true for an ignored or rejected environment event — a
	// semantic no-op that cannot have changed the global state.
	envNoop bool
}

// applyMove executes one move against ms and queues in place. Machines
// are mutated directly; queue slices are replaced copy-on-write (the
// previous backing arrays are never written), so callers may share queue
// contents across shallow header copies. onOverrun, when non-nil, is
// invoked for every overrun drop caused by the move.
func applyMove(sys *System, ms []*fsm.Machine, queues [][]expr.Value, mv Move,
	deliverArgs []map[string]expr.Value, onOverrun func(route int, dropped expr.Value)) (applyResult, error) {
	switch mv.Kind {
	case MoveEnv:
		env := &sys.Env[mv.Env]
		var args map[string]expr.Value
		if len(env.Args) > 0 {
			args = env.Args[mv.ArgIdx]
		}
		res, err := stepByName(ms[env.Machine], env.Event, args)
		if err != nil {
			return applyResult{}, err
		}
		if res.Ignored || res.Rejected {
			return applyResult{envNoop: true}, nil
		}
		routeOutputs(sys, queues, env.Machine, res.Outputs, onOverrun)
		return applyResult{fired: true}, nil
	case MoveDeliver:
		r := &sys.Routes[mv.Route]
		q := queues[mv.Route]
		msg := q[mv.QIdx]
		queues[mv.Route] = removeAt(q, mv.QIdx)
		args := deliverArgs[mv.Route]
		args[r.Param] = msg
		res, err := stepByName(ms[r.To], r.Event, args)
		if err != nil {
			return applyResult{}, err
		}
		if res.Fired == nil {
			// The message is consumed even when rejected or ignored: the
			// queue changed but the machine did not.
			return applyResult{}, nil
		}
		routeOutputs(sys, queues, r.To, res.Outputs, onOverrun)
		return applyResult{fired: true}, nil
	case MoveDrop:
		queues[mv.Route] = removeAt(queues[mv.Route], mv.QIdx)
		return applyResult{}, nil
	default:
		return applyResult{}, fmt.Errorf("verify: unknown move kind %d", mv.Kind)
	}
}

// stepByName delivers an event to m by name, binding the named arguments
// by position to the event's declared parameters. The reference engine
// resolves every move this way rather than through compileSystem's
// bound ids, so the two engines share no binding (DESIGN.md §12).
func stepByName(m *fsm.Machine, event string, named map[string]expr.Value) (fsm.FrameResult, error) {
	ev, ok := m.EventID(event)
	if !ok {
		return fsm.FrameResult{}, fmt.Errorf("verify: machine %s: %w: %q", m.Spec().Name, fsm.ErrUnknownEvent, event)
	}
	args, err := positional(m.Program().EventAt(int(ev)).Params, named)
	if err != nil {
		return fsm.FrameResult{}, fmt.Errorf("verify: machine %s: event %s: %w: %w", m.Spec().Name, event, fsm.ErrBadArg, err)
	}
	return m.StepEv(ev, args...)
}

// routeOutputs places emitted messages onto their routes, dropping one
// queued message on overrun. Queue slices are replaced, never mutated.
//
// FIFO routes drop the oldest (head) message. Reordering routes are
// multisets with no meaningful "oldest" — the concrete order of a decoded
// queue is an engine artifact — so the victim is the canonically smallest
// element, a choice both engines compute identically from the values
// alone. Without an order-independent rule the two engines would drop
// different messages and explore different graphs.
func routeOutputs(sys *System, queues [][]expr.Value, from int, outputs []fsm.FrameOutput,
	onOverrun func(route int, dropped expr.Value)) {
	for _, out := range outputs {
		for ri := range sys.Routes {
			r := &sys.Routes[ri]
			if r.From != from || r.Message != out.Message {
				continue
			}
			msg := ownFrame(out)
			q := queues[ri]
			if len(q) >= r.Capacity {
				victim := 0
				if r.Reorder && len(q) > 1 {
					victim = canonMinIndex(q)
				}
				if onOverrun != nil {
					onOverrun(ri, q[victim])
				}
				q = removeAt(q, victim)
				queues[ri] = append(q, msg)
				continue
			}
			queues[ri] = append(append(make([]expr.Value, 0, len(q)+1), q...), msg)
		}
	}
}

// ownFrame copies an emitted message out of the machine's reused output
// frame, so the queued value outlives the machine's next step.
func ownFrame(out fsm.FrameOutput) expr.Value {
	f := expr.NewFrame(out.Shape.NumFields())
	for i := 0; i < f.Len(); i++ {
		f.Set(i, out.Frame.Get(i))
	}
	return expr.FrameMsg(out.Shape, f)
}

// canonMinIndex returns the index of the canonically smallest element.
func canonMinIndex(q []expr.Value) int {
	min := 0
	var minEnc, buf []byte
	minEnc = q[0].AppendCanon(minEnc)
	for i := 1; i < len(q); i++ {
		buf = q[i].AppendCanon(buf[:0])
		if string(buf) < string(minEnc) {
			min = i
			minEnc = append(minEnc[:0], buf...)
		}
	}
	return min
}

// removeAt returns q without element i, in a fresh slice.
func removeAt(q []expr.Value, i int) []expr.Value {
	out := make([]expr.Value, 0, len(q)-1)
	out = append(out, q[:i]...)
	return append(out, q[i+1:]...)
}

func allFinal(machines []*fsm.Machine) bool {
	for _, m := range machines {
		if !m.InFinal() {
			return false
		}
	}
	return true
}

func describeMoves(moves []Move) []string {
	out := make([]string, len(moves))
	for i, mv := range moves {
		out[i] = mv.String()
	}
	return out
}

// sortViolations orders Explore's violations deterministically: by
// depth, then by the anchor state's canonical encoding, then by kind,
// name, message and final move, so results are independent of worker
// scheduling.
func sortViolations(vs []Violation, anchors [][]byte) {
	idx := make([]int, len(vs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		va, vb := &vs[a], &vs[b]
		if va.Depth != vb.Depth {
			return cmp.Compare(va.Depth, vb.Depth)
		}
		if c := bytes.Compare(anchors[a], anchors[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(va.Kind, vb.Kind); c != 0 {
			return c
		}
		if c := cmp.Compare(va.Name, vb.Name); c != 0 {
			return c
		}
		if c := cmp.Compare(va.Msg, vb.Msg); c != 0 {
			return c
		}
		// Same anchor, kind, name and message: only step-error/overrun
		// violations can tie here, and they differ in their final move.
		return cmp.Compare(finalMove(va.final), finalMove(vb.final))
	})
	sorted := make([]Violation, len(vs))
	for i, j := range idx {
		sorted[i] = vs[j]
	}
	copy(vs, sorted)
}

// finalMove renders a violation's offending move, "" when it has none.
func finalMove(mv Move) string {
	if mv.Kind == 0 {
		return ""
	}
	return mv.String()
}
