package verify

// The parallel explicit-state search (DESIGN.md §12).
//
// Explore runs a level-synchronised BFS: every worker drains the current
// depth's frontier (its own first, then stealing from the others via a
// shared atomic cursor per frontier), appending discovered states to a
// private next-level list; a barrier separates levels. Level synchrony is
// what makes results deterministic: a state is always first inserted at
// its minimal BFS depth, so violation depths and counter-example trace
// lengths are identical for any worker count — only which equal-length
// parent chain gets recorded can vary.
//
// Workers never share mutable state except the visited table (internally
// striped) and the frontier cursors. A worker owns one set of machines
// compiled once per spec and rehydrates them per expansion from the
// canonical state encoding — no machine clones, no string keys. It steps
// them through fsm.Machine.StepEv with event ids and argument lists
// resolved once per Explore, reads enabledness off the compiled dispatch
// rows, and keeps in-flight messages interned (encode.go), so expanding
// a state allocates nothing once the intern tables are warm.
//
// The moves and their effects are exactly enabledMoves/applyMove's, which
// ExploreSequential and Replay use; the differential tests pin the two.

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// levelFrontier is one worker's slice of the current BFS level with a
// shared claim cursor: own-pop and steal are the same atomic increment.
type levelFrontier struct {
	refs []ref
	head atomic.Int64
}

// envBinding is an environment event resolved once per Explore.
type envBinding struct {
	ev fsm.EventID // -1 when the machine does not declare the event
	// args[i] is EnvEvent.Args[i] in the event's parameter order; byName[i]
	// marks a binding whose names do not match the parameters, which is
	// stepped by name so Step reports the mismatch.
	args   [][]expr.Value
	byName []bool
}

// routeBinding is a route's delivery event resolved once per Explore.
type routeBinding struct {
	ev fsm.EventID // -1 when the consumer does not declare the event
	// byName is set unless Route.Param is the event's only parameter.
	byName bool
}

type pexplorer struct {
	sys       *System
	opts      Options
	progs     []*fsm.Program
	envs      []envBinding
	routes    []routeBinding
	tbl       *table
	workers   []*pworker
	frontiers []levelFrontier
}

// pviol is a violation before trace reconstruction: anchored at a table
// ref instead of carrying the trace.
type pviol struct {
	kind, name, msg string
	state           ref
	depth           int32
	extra           Move
	hasExtra        bool
}

type pworker struct {
	id int
	e  *pexplorer

	ms          []*fsm.Machine
	msgs        []msgTable // interned in-flight messages, per route
	baseQ       [][]msgID  // decoded queues of the node being expanded
	q           [][]msgID  // per-move working copy of the queues
	moves       []Move
	arg         [1]expr.Value // positional delivery argument
	deliverArgs []map[string]expr.Value
	encBuf      []byte // current node's encoding
	succBuf     []byte // successor encoding scratch
	canonBuf    []byte // output message encoding scratch
	snap        Snapshot
	next        []ref // next-level frontier (worker-private)

	transitions uint64
	dupHits     uint64
	overruns    []uint64
	viols       []pviol
	err         error

	curRef   ref
	curDepth int32
	curMove  Move
}

func newPWorker(e *pexplorer, id int) *pworker {
	nr := len(e.sys.Routes)
	w := &pworker{
		id:          id,
		e:           e,
		ms:          newMachines(e.progs),
		msgs:        newMsgTables(e.sys, e.progs),
		baseQ:       make([][]msgID, nr),
		q:           make([][]msgID, nr),
		overruns:    make([]uint64, nr),
		deliverArgs: deliverArgsFor(e.sys),
		snap: Snapshot{
			States: make([]string, len(e.progs)),
			Vars:   make([]map[string]expr.Value, len(e.progs)),
			Queues: make([][]expr.Value, nr),
		},
	}
	for i, p := range e.progs {
		w.snap.Vars[i] = make(map[string]expr.Value, len(p.Spec().Vars))
	}
	return w
}

// bindEvents resolves every environment event and route delivery to an
// event id and, where the argument names match the event's parameters
// exactly, a positional argument list.
func bindEvents(sys *System, progs []*fsm.Program) ([]envBinding, []routeBinding) {
	eventID := func(machine int, name string) (fsm.EventID, *fsm.Event) {
		id, ok := progs[machine].EventID(name)
		if !ok {
			return -1, nil
		}
		ev, _ := progs[machine].Spec().EventByName(name)
		return id, ev
	}
	envs := make([]envBinding, len(sys.Env))
	for ei, env := range sys.Env {
		b := &envs[ei]
		id, ev := eventID(env.Machine, env.Event)
		b.ev = id
		named := env.Args
		if len(named) == 0 {
			named = []map[string]expr.Value{nil}
		}
		b.args = make([][]expr.Value, len(named))
		b.byName = make([]bool, len(named))
		for i, args := range named {
			if ev == nil {
				continue // never executable
			}
			b.args[i], b.byName[i] = positional(ev.Params, args)
		}
	}
	routes := make([]routeBinding, len(sys.Routes))
	for ri, r := range sys.Routes {
		id, ev := eventID(r.To, r.Event)
		routes[ri] = routeBinding{
			ev:     id,
			byName: ev == nil || len(ev.Params) != 1 || ev.Params[0].Name != r.Param,
		}
	}
	return envs, routes
}

// positional orders named arguments by the event's parameters. byName is
// true when the names are not exactly the parameters.
func positional(params []fsm.Param, named map[string]expr.Value) (args []expr.Value, byName bool) {
	if len(named) != len(params) {
		return nil, true
	}
	args = make([]expr.Value, len(params))
	for i, p := range params {
		v, ok := named[p.Name]
		if !ok {
			return nil, true
		}
		args[i] = v
	}
	return args, false
}

// Explore runs the parallel breadth-first search over the system's
// product state space. Results — states, transitions, violations, trace
// lengths, overrun counts — are deterministic and identical for every
// Workers value; see Options for the truncation and stop-early caveats.
func Explore(sys *System, opts Options) (*Result, error) {
	progs, err := compileSystem(sys)
	if err != nil {
		return nil, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 20
	}
	nw := opts.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > 64 {
		nw = 64
	}
	start := time.Now()

	e := &pexplorer{
		sys: sys, opts: opts, progs: progs,
		tbl:       newTable(opts.MaxStates),
		frontiers: make([]levelFrontier, nw),
	}
	e.envs, e.routes = bindEvents(sys, progs)
	e.workers = make([]*pworker, nw)
	for i := range e.workers {
		e.workers[i] = newPWorker(e, i)
	}

	w0 := e.workers[0]
	rootEnc := encodeState(sys, w0.msgs, w0.ms, w0.baseQ, nil)
	rootRef, _, full := e.tbl.insert(fingerprint(rootEnc), rootEnc, refNil, -1, 0)
	if !full {
		w0.checkInvariants(rootRef, 0, w0.baseQ)
		e.frontiers[0].refs = []ref{rootRef}
	}

	depth := int32(0)
	maxDepth := 0
	frontierPeak := 0
	for {
		total := 0
		for i := range e.frontiers {
			e.frontiers[i].head.Store(0)
			total += len(e.frontiers[i].refs)
		}
		if total == 0 {
			break
		}
		if total > frontierPeak {
			frontierPeak = total
		}
		maxDepth = int(depth)

		var wg sync.WaitGroup
		for _, w := range e.workers {
			wg.Add(1)
			go func(w *pworker) {
				defer wg.Done()
				w.drain(depth)
			}(w)
		}
		wg.Wait()
		for _, w := range e.workers {
			if w.err != nil {
				return nil, w.err
			}
		}

		for i, w := range e.workers {
			e.frontiers[i].refs = w.next
			w.next = nil
		}
		depth++
		if opts.StopAtFirstViolation && e.anyViols() {
			break
		}
	}

	res := &Result{
		States:    int(e.tbl.count.Load()),
		Truncated: e.tbl.truncated.Load(),
		Overruns:  make([]uint64, len(sys.Routes)),
	}
	for _, w := range e.workers {
		res.Transitions += int(w.transitions)
		res.Stats.DupHits += int(w.dupHits)
		for ri, c := range w.overruns {
			res.Overruns[ri] += c
		}
	}
	var pviols []pviol
	for _, w := range e.workers {
		pviols = append(pviols, w.viols...)
	}
	if len(pviols) > 0 {
		tr := newTracer(e)
		vs := make([]Violation, len(pviols))
		anchors := make([][]byte, len(pviols))
		for i, pv := range pviols {
			var extra *Move
			if pv.hasExtra {
				extra = &pv.extra
			}
			moves, trace, err := tr.path(pv.state, extra)
			if err != nil {
				return nil, err
			}
			vs[i] = Violation{
				Kind: pv.kind, Name: pv.name, Msg: pv.msg,
				Moves: moves, Trace: trace, Depth: int(pv.depth),
			}
			anchors[i], _ = e.tbl.node(pv.state, nil)
		}
		sortViolations(vs, anchors)
		res.Violations = vs
	}
	res.Stats.Workers = nw
	res.Stats.Depth = maxDepth
	res.Stats.FrontierPeak = frontierPeak
	res.Stats.ArenaBytes = e.tbl.arenaBytes()
	res.Stats.Elapsed = time.Since(start)
	if secs := res.Stats.Elapsed.Seconds(); secs > 0 {
		res.Stats.StatesPerSec = float64(res.States) / secs
	}
	return res, nil
}

func (e *pexplorer) anyViols() bool {
	for _, w := range e.workers {
		if len(w.viols) > 0 {
			return true
		}
	}
	return false
}

// drain claims states from the level's frontiers — own list first, then
// the other workers' — until every frontier is exhausted.
func (w *pworker) drain(depth int32) {
	n := len(w.e.frontiers)
	for w.err == nil {
		claimed := false
		for i := 0; i < n; i++ {
			f := &w.e.frontiers[(w.id+i)%n]
			idx := f.head.Add(1) - 1
			if idx < int64(len(f.refs)) {
				w.expand(f.refs[idx], depth)
				claimed = true
				break
			}
		}
		if !claimed {
			return
		}
	}
}

// load decodes the state r into the worker's machines and base queues
// and enumerates its moves into w.moves.
func (w *pworker) load(r ref) error {
	w.encBuf, _ = w.e.tbl.node(r, w.encBuf)
	if err := decodeState(w.msgs, w.ms, w.baseQ, w.encBuf); err != nil {
		return err
	}
	w.enabledMoves()
	return nil
}

// expand applies every enabled move of one state, inserting unseen
// successors into the table and the worker's next-level frontier.
func (w *pworker) expand(r ref, depth int32) {
	if w.err = w.load(r); w.err != nil {
		return
	}
	w.curRef, w.curDepth = r, depth
	productive := false
	machinesDirty := false
	for mi := range w.moves {
		mv := w.moves[mi]
		if machinesDirty {
			if _, err := restoreMachines(w.ms, w.encBuf); err != nil {
				w.err = err
				return
			}
			machinesDirty = false
		}
		for ri, bq := range w.baseQ {
			w.q[ri] = append(w.q[ri][:0], bq...)
		}
		w.curMove = mv
		ar, err := w.apply(mv)
		if err != nil {
			w.viols = append(w.viols, pviol{
				kind: ViolationStep, name: mv.String(), msg: err.Error(),
				state: r, depth: depth, extra: mv, hasExtra: true,
			})
			continue
		}
		w.transitions++
		if ar.envNoop {
			continue
		}
		machinesDirty = ar.fired
		w.succBuf = encodeState(w.e.sys, w.msgs, w.ms, w.q, w.succBuf[:0])
		if bytes.Equal(w.succBuf, w.encBuf) {
			continue // fired but changed nothing
		}
		productive = true
		nr, isNew, full := w.e.tbl.insert(fingerprint(w.succBuf), w.succBuf, r, int32(mi), depth+1)
		if full {
			continue // table already marked truncated
		}
		if !isNew {
			w.dupHits++
			continue
		}
		w.next = append(w.next, nr)
		// The machines and w.q hold exactly the successor state here.
		w.checkInvariants(nr, depth+1, w.q)
	}
	if w.e.opts.CheckDeadlock && !productive {
		if machinesDirty {
			if _, err := restoreMachines(w.ms, w.encBuf); err != nil {
				w.err = err
				return
			}
		}
		if !allFinal(w.ms) {
			w.viols = append(w.viols, pviol{
				kind: ViolationDeadlock, name: "deadlock",
				msg:   "no state-changing moves and not all machines final",
				state: r, depth: depth,
			})
		}
	}
}

// enabledMoves is enabledMoves over the worker's machines and base
// queues, with executability read from the compiled dispatch rows: the
// same moves in the same order.
func (w *pworker) enabledMoves() {
	sys := w.e.sys
	moves := w.moves[:0]
	for ei := range sys.Env {
		env := &sys.Env[ei]
		if !w.ms[env.Machine].Executable(w.e.envs[ei].ev) {
			continue
		}
		for i := 0; i < max(len(env.Args), 1); i++ {
			moves = append(moves, Move{
				Kind: MoveEnv, Env: ei, Machine: env.Machine, Event: env.Event, ArgIdx: i,
			})
		}
	}
	for ri := range sys.Routes {
		r := &sys.Routes[ri]
		n := len(w.baseQ[ri])
		if n == 0 {
			continue
		}
		slots := 1
		if r.Reorder {
			slots = n
		}
		if w.ms[r.To].Executable(w.e.routes[ri].ev) {
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
	w.moves = moves
}

// apply is applyMove over the worker's machines and working queues w.q,
// which it edits in place.
func (w *pworker) apply(mv Move) (applyResult, error) {
	e := w.e
	switch mv.Kind {
	case MoveEnv:
		env := &e.sys.Env[mv.Env]
		b := &e.envs[mv.Env]
		var fired bool
		var err error
		if b.byName[mv.ArgIdx] {
			var args map[string]expr.Value
			if len(env.Args) > 0 {
				args = env.Args[mv.ArgIdx]
			}
			fired, err = w.stepByName(env.Machine, env.Event, args)
		} else {
			fired, err = w.stepEv(env.Machine, b.ev, b.args[mv.ArgIdx])
		}
		if err != nil {
			return applyResult{}, err
		}
		return applyResult{fired: fired, envNoop: !fired}, nil
	case MoveDeliver:
		r := &e.sys.Routes[mv.Route]
		msg := w.msgs[mv.Route].vals[w.q[mv.Route][mv.QIdx]]
		w.remove(mv.Route, mv.QIdx)
		var fired bool
		var err error
		if e.routes[mv.Route].byName {
			args := w.deliverArgs[mv.Route]
			args[r.Param] = msg
			fired, err = w.stepByName(r.To, r.Event, args)
		} else {
			w.arg[0] = msg
			fired, err = w.stepEv(r.To, e.routes[mv.Route].ev, w.arg[:])
		}
		// A rejected or ignored message is still consumed: the queue
		// changed but the machine did not.
		return applyResult{fired: fired}, err
	case MoveDrop:
		w.remove(mv.Route, mv.QIdx)
		return applyResult{}, nil
	default:
		return applyResult{}, fmt.Errorf("verify: unknown move kind %d", mv.Kind)
	}
}

func (w *pworker) remove(route, i int) {
	q := w.q[route]
	w.q[route] = append(q[:i], q[i+1:]...)
}

// stepEv steps machine mi through the positional fast path and queues
// the outputs of a fired transition.
func (w *pworker) stepEv(mi int, ev fsm.EventID, args []expr.Value) (fired bool, err error) {
	res, err := w.ms[mi].StepEv(ev, args...)
	if err != nil || res.Fired == nil {
		return false, err
	}
	for _, o := range res.Outputs {
		msg := expr.FrameMsg(o.Shape, o.Frame)
		w.canonBuf = msg.AppendCanon(w.canonBuf[:0])
		w.emit(mi, o.Message, msg)
	}
	return true, nil
}

// stepByName steps machine mi with named arguments — the binding StepEv
// cannot express, which Step rejects with the reference engine's error.
func (w *pworker) stepByName(mi int, event string, args map[string]expr.Value) (fired bool, err error) {
	res, err := w.ms[mi].Step(event, args)
	if err != nil || res.Fired == nil {
		return false, err
	}
	for _, o := range res.Outputs {
		msg := expr.MsgView(o.Message, o.Fields)
		w.canonBuf = msg.AppendCanon(w.canonBuf[:0])
		w.emit(mi, o.Message, msg)
	}
	return true, nil
}

// emit places an output of machine from, whose canonical encoding is in
// w.canonBuf, on every route that carries it — routeOutputs' semantics,
// including the overrun victim rule.
func (w *pworker) emit(from int, message string, msg expr.Value) {
	for ri := range w.e.sys.Routes {
		r := &w.e.sys.Routes[ri]
		if r.From != from || r.Message != message {
			continue
		}
		t := &w.msgs[ri]
		id := t.intern(msg, w.canonBuf)
		if q := w.q[ri]; len(q) >= r.Capacity {
			victim := 0
			if r.Reorder && len(q) > 1 {
				victim = t.minIndex(q)
			}
			w.overrun(ri, t.vals[q[victim]])
			w.remove(ri, victim)
		}
		w.q[ri] = append(w.q[ri], id)
	}
}

// overrun counts a channel-overrun drop and applies the overrun
// invariant, anchored at the state and move being expanded.
func (w *pworker) overrun(route int, dropped expr.Value) {
	w.overruns[route]++
	if inv := w.e.opts.OverrunInvariant; inv != nil {
		if err := inv(route, dropped); err != nil {
			w.viols = append(w.viols, pviol{
				kind: ViolationOverrun, name: "channel-overrun", msg: err.Error(),
				state: w.curRef, depth: w.curDepth, extra: w.curMove, hasExtra: true,
			})
		}
	}
}

// checkInvariants evaluates the invariants on the machines and queues,
// through the worker's one reused Snapshot (see Invariant.Fn).
func (w *pworker) checkInvariants(r ref, depth int32, queues [][]msgID) {
	if len(w.e.opts.Invariants) == 0 {
		return
	}
	snap := &w.snap
	for i, m := range w.ms {
		snap.States[i] = m.State()
		vars := snap.Vars[i]
		for _, v := range m.Spec().Vars {
			vars[v.Name], _ = m.Var(v.Name)
		}
	}
	for ri, q := range queues {
		vals := snap.Queues[ri][:0]
		for _, id := range q {
			vals = append(vals, w.msgs[ri].vals[id])
		}
		snap.Queues[ri] = vals
	}
	for _, inv := range w.e.opts.Invariants {
		if err := inv.Fn(snap); err != nil {
			w.viols = append(w.viols, pviol{
				kind: ViolationInvariant, name: inv.Name, msg: err.Error(),
				state: r, depth: depth,
			})
		}
	}
}

// tracer reconstructs counter-example traces after the search, single-
// threaded on worker 0. The move into a state is found by decoding its
// parent, re-enumerating the parent's moves and taking the recorded
// index; tracer memoises it per state, so the prefixes many violations
// share are decoded once.
type tracer struct {
	e      *pexplorer
	w      *pworker
	memo   map[ref]traceStep
	loaded ref // the state whose moves w.moves holds
	chain  []ref
}

// traceStep is the move into a state, with its rendering.
type traceStep struct {
	mv  Move
	str string
}

func newTracer(e *pexplorer) *tracer {
	return &tracer{e: e, w: e.workers[0], memo: map[ref]traceStep{}, loaded: refNil}
}

// path returns the moves from the initial state to r, then extra when
// non-nil, with their renderings.
func (t *tracer) path(r ref, extra *Move) ([]Move, []string, error) {
	t.chain = t.chain[:0]
	for cur := r; cur != refNil; cur = t.e.tbl.metaOf(cur).parent {
		t.chain = append(t.chain, cur)
	}
	n := len(t.chain) - 1
	if extra != nil {
		n++
	}
	moves := make([]Move, 0, n)
	trace := make([]string, 0, n)
	// chain runs from r up to the root; walk it root-first, skipping the
	// root itself, which no move leads into.
	for i := len(t.chain) - 2; i >= 0; i-- {
		st, err := t.stepInto(t.chain[i], t.chain[i+1])
		if err != nil {
			return nil, nil, err
		}
		moves = append(moves, st.mv)
		trace = append(trace, st.str)
	}
	if extra != nil {
		moves = append(moves, *extra)
		trace = append(trace, extra.String())
	}
	return moves, trace, nil
}

// stepInto returns the move from parent into child.
func (t *tracer) stepInto(child, parent ref) (traceStep, error) {
	if st, ok := t.memo[child]; ok {
		return st, nil
	}
	if t.loaded != parent {
		if err := t.w.load(parent); err != nil {
			return traceStep{}, err
		}
		t.loaded = parent
	}
	mid := t.e.tbl.metaOf(child).moveID
	if int(mid) >= len(t.w.moves) {
		return traceStep{}, fmt.Errorf("verify: trace: move %d of a state with %d moves", mid, len(t.w.moves))
	}
	mv := t.w.moves[mid]
	st := traceStep{mv: mv, str: mv.String()}
	t.memo[child] = st
	return st, nil
}
