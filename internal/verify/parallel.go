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
// Workers share the visited table (internally striped), the frontier
// cursors and the append-only intern tables (encode.go), which they read
// through private caches. A worker owns one set of machines compiled
// once per spec and restores them per expansion from the state's
// fixed-layout record (record.go) — no machine clones, no decoding, no
// string keys. It steps them through fsm.Machine.StepEv with the event
// ids and argument lists compileSystem bound, and reads enabledness off
// the compiled dispatch rows, so expanding a state allocates nothing
// once the intern caches are warm.
//
// The moves and their effects are exactly enabledMoves/applyMove's, which
// ExploreSequential and Replay use; the differential tests pin the two.

import (
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

type pexplorer struct {
	*boundSystem
	sys       *System
	opts      Options
	lay       *recordLayout
	msgs      []*internTable // in-flight messages, per route
	vars      *internTable   // non-scalar variable values
	invs      []boundInvariant
	tbl       *table
	workers   []*pworker
	frontiers []levelFrontier
	start     time.Time
}

type pworker struct {
	id int
	e  *pexplorer

	ms        []*fsm.Machine
	msgs      []internCache // per route
	vars      internCache
	baseQ     [][]uint32 // queues of the state being expanded
	qbuf      [][]uint32 // a move's edited queues, where qGen == gen
	qGen      []uint64
	gen       uint64 // counts moves
	moves     []Move
	arg       [1]expr.Value // positional delivery argument
	cur       []uint64      // record of the state being expanded
	succ      []uint64      // successor record scratch
	canonBuf  []byte        // canonical encoding scratch
	stepped   int           // the machine the last apply stepped
	invU      []uint64      // bound invariants' variable values
	invStates []string      // bound invariants' state names
	next      []ref         // next-level frontier (worker-private)

	transitions uint64
	dupHits     uint64
	overruns    []uint64
	viols       []Violation // anchored at table refs, without a tracer

	curRef   ref
	curDepth int32
	curMove  Move
}

func newPWorker(e *pexplorer, id int) *pworker {
	nr := len(e.sys.Routes)
	w := &pworker{
		id:       id,
		e:        e,
		ms:       newMachines(e.progs),
		msgs:     make([]internCache, nr),
		vars:     newInternCache(e.vars),
		baseQ:    make([][]uint32, nr),
		qbuf:     make([][]uint32, nr),
		qGen:     make([]uint64, nr),
		cur:      make([]uint64, e.lay.words),
		succ:     make([]uint64, e.lay.words),
		overruns: make([]uint64, nr),
	}
	for ri, t := range e.msgs {
		w.msgs[ri] = newInternCache(t)
	}
	nu, ns := 0, 0
	for _, b := range e.invs {
		nu, ns = max(nu, len(b.vars)), max(ns, len(b.states))
	}
	w.invU, w.invStates = make([]uint64, nu), make([]string, ns)
	return w
}

// Explore runs the parallel breadth-first search over the system's
// product state space. Results — states, transitions, violations, trace
// lengths, overrun counts — are deterministic and identical for every
// Workers value; see Options for the truncation and stop-early caveats.
func Explore(sys *System, opts Options) (*Result, error) {
	e, err := newExplorer(sys, opts)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// newExplorer compiles the system and lays out its record, ready to run.
func newExplorer(sys *System, opts Options) (*pexplorer, error) {
	b, err := compileSystem(sys, opts.Invariants)
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
	e := &pexplorer{
		boundSystem: b, sys: sys, opts: opts,
		lay:       newRecordLayout(sys, b.progs),
		msgs:      newMsgTables(sys, b.progs),
		vars:      newVarTable(),
		frontiers: make([]levelFrontier, nw),
		start:     time.Now(),
	}
	e.tbl = newTable(e.lay.words, opts.MaxStates)
	e.invs = e.bindInvariants(opts.Invariants)
	e.workers = make([]*pworker, nw)
	for i := range e.workers {
		e.workers[i] = newPWorker(e, i)
	}
	return e, nil
}

// run searches level by level and assembles the result.
func (e *pexplorer) run() (*Result, error) {
	w0 := e.workers[0]
	w0.save(w0.baseQ, w0.cur)
	rootRef, _, full := e.tbl.insert(hashRecord(w0.cur), w0.cur, refNil, -1)
	if !full {
		w0.checkInvariants(rootRef, 0, w0.cur)
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

		for i, w := range e.workers {
			e.frontiers[i].refs = w.next
			w.next = nil
		}
		depth++
		if e.opts.StopAtFirstViolation && e.anyViols() {
			break
		}
	}

	res := &Result{
		States:    int(e.tbl.count.Load()),
		Truncated: e.tbl.truncated.Load(),
		Overruns:  make([]uint64, len(e.sys.Routes)),
	}
	for _, w := range e.workers {
		res.Transitions += int(w.transitions)
		res.Stats.DupHits += int(w.dupHits)
		for ri, c := range w.overruns {
			res.Overruns[ri] += c
		}
		res.Violations = append(res.Violations, w.viols...)
	}
	res.Stats.Workers = len(e.workers)
	res.Stats.Depth = maxDepth
	res.Stats.FrontierPeak = frontierPeak
	res.Stats.ArenaBytes = e.tbl.arenaBytes()
	if len(res.Violations) > 0 {
		e.violations(res.Violations)
	}
	res.Stats.Elapsed = time.Since(e.start)
	if secs := res.Stats.Elapsed.Seconds(); secs > 0 {
		res.Stats.StatesPerSec = float64(res.States) / secs
	}
	return res, nil
}

// violations attaches the tracer to every violation and sorts the
// report by (depth, canonical encoding of the anchor state, ...). Only
// here, for violating states, is the canonical encoding computed; no
// trace is built until a caller asks for one.
func (e *pexplorer) violations(vs []Violation) {
	// The tracer reuses worker 0's machines; the other workers, their
	// caches and the frontiers are released with the search.
	w := e.workers[0]
	w.viols = nil
	e.workers, e.frontiers = []*pworker{w}, nil
	tr := &tracer{e: e, w: w, loaded: refNil}
	anchors := make([][]byte, len(vs))
	for i := range vs {
		vs[i].src = tr
		e.tbl.record(vs[i].at, w.cur)
		w.restore(w.cur, w.baseQ)
		anchors[i] = encodeState(e.sys, w.msgs, w.ms, w.baseQ, nil)
	}
	sortViolations(vs, anchors)
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
	for {
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

// load restores the state r into the worker's machines and base queues,
// leaving its record in w.cur, and enumerates its moves into w.moves.
func (w *pworker) load(r ref) {
	w.e.tbl.record(r, w.cur)
	w.restore(w.cur, w.baseQ)
	w.enabledMoves()
}

// expand applies every enabled move of one state, inserting unseen
// successors into the table and the worker's next-level frontier.
func (w *pworker) expand(r ref, depth int32) {
	w.load(r)
	w.curRef, w.curDepth = r, depth
	productive := false
	dirty := -1 // a machine that may no longer hold its state in w.cur
	for mi := range w.moves {
		mv := w.moves[mi]
		if dirty >= 0 {
			w.restoreMachine(dirty, w.cur)
			dirty = -1
		}
		w.gen++ // every queue reads as its base queue until edited
		w.curMove = mv
		w.stepped = -1
		ar, err := w.apply(mv)
		if w.stepped >= 0 && (ar.fired || err != nil) {
			dirty = w.stepped
		}
		if err != nil {
			w.viols = append(w.viols, Violation{
				Kind: ViolationStep, Name: mv.String(), Msg: err.Error(),
				Depth: int(depth), at: r, final: mv,
			})
			continue
		}
		w.transitions++
		if ar.envNoop {
			continue
		}
		copy(w.succ, w.cur)
		if ar.fired {
			w.saveMachine(dirty, w.succ)
		}
		for ri, g := range w.qGen {
			if g == w.gen {
				w.saveQueue(ri, w.qbuf[ri], w.succ)
			}
		}
		if equalRecords(w.succ, w.cur) {
			continue // fired but changed nothing
		}
		productive = true
		nr, isNew, full := w.e.tbl.insert(hashRecord(w.succ), w.succ, r, int32(mi))
		if full {
			continue // table already marked truncated
		}
		if !isNew {
			w.dupHits++
			continue
		}
		w.next = append(w.next, nr)
		// The machines and queues hold exactly the successor state here.
		w.checkInvariants(nr, depth+1, w.succ)
	}
	if w.e.opts.CheckDeadlock && !productive {
		if dirty >= 0 {
			w.restoreMachine(dirty, w.cur)
		}
		if !allFinal(w.ms) {
			w.viols = append(w.viols, Violation{
				Kind: ViolationDeadlock, Name: "deadlock",
				Msg:   "no state-changing moves and not all machines final",
				Depth: int(depth), at: r,
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
		if w.ms[r.To].Executable(w.e.routes[ri]) {
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

// apply is applyMove over the worker's machines and queues (see queue),
// which it edits in place.
func (w *pworker) apply(mv Move) (applyResult, error) {
	e := w.e
	switch mv.Kind {
	case MoveEnv:
		b := &e.envs[mv.Env]
		fired, err := w.stepEv(e.sys.Env[mv.Env].Machine, b.ev, b.args[mv.ArgIdx])
		if err != nil {
			return applyResult{}, err
		}
		return applyResult{fired: fired, envNoop: !fired}, nil
	case MoveDeliver:
		w.arg[0] = w.msgs[mv.Route].entry(w.queue(mv.Route)[mv.QIdx]).val
		w.remove(mv.Route, mv.QIdx)
		fired, err := w.stepEv(e.sys.Routes[mv.Route].To, e.routes[mv.Route], w.arg[:])
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
	q := w.ownQueue(route)
	*q = append((*q)[:i], (*q)[i+1:]...)
}

// queue returns route ri's queue as the current move has left it.
func (w *pworker) queue(ri int) []uint32 {
	if w.qGen[ri] == w.gen {
		return w.qbuf[ri]
	}
	return w.baseQ[ri]
}

// ownQueue returns route ri's queue for editing: a private copy of the
// base queue, made at the move's first edit of the route.
func (w *pworker) ownQueue(ri int) *[]uint32 {
	if w.qGen[ri] != w.gen {
		w.qGen[ri] = w.gen
		w.qbuf[ri] = append(w.qbuf[ri][:0], w.baseQ[ri]...)
	}
	return &w.qbuf[ri]
}

// stepEv steps machine mi through the positional fast path and queues
// the outputs of a fired transition.
func (w *pworker) stepEv(mi int, ev fsm.EventID, args []expr.Value) (fired bool, err error) {
	w.stepped = mi
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

// emit places an output of machine from, whose canonical encoding is in
// w.canonBuf, on every route that carries it — routeOutputs' semantics,
// including the overrun victim rule.
func (w *pworker) emit(from int, message string, msg expr.Value) {
	for ri := range w.e.sys.Routes {
		r := &w.e.sys.Routes[ri]
		if r.From != from || r.Message != message {
			continue
		}
		c := &w.msgs[ri]
		id := c.intern(msg, w.canonBuf)
		if q := w.queue(ri); len(q) >= r.Capacity {
			victim := 0
			if r.Reorder && len(q) > 1 {
				victim = c.minIndex(q)
			}
			w.overrun(ri, c.entry(q[victim]).val)
			w.remove(ri, victim)
		}
		q := w.ownQueue(ri)
		*q = append(*q, id)
	}
}

// overrun counts a channel-overrun drop and applies the overrun
// invariant, anchored at the state and move being expanded.
func (w *pworker) overrun(route int, dropped expr.Value) {
	w.overruns[route]++
	if inv := w.e.opts.OverrunInvariant; inv != nil {
		if err := inv(route, dropped); err != nil {
			w.viols = append(w.viols, Violation{
				Kind: ViolationOverrun, Name: "channel-overrun", Msg: err.Error(),
				Depth: int(w.curDepth), at: w.curRef, final: w.curMove,
			})
		}
	}
}

// checkInvariants evaluates the bound invariants on the record rec of a
// new state.
func (w *pworker) checkInvariants(r ref, depth int32, rec []uint64) {
	for i := range w.e.invs {
		b := &w.e.invs[i]
		if err := b.eval(w, rec); err != nil {
			w.viols = append(w.viols, Violation{
				Kind: ViolationInvariant, Name: b.inv.Name, Msg: err.Error(),
				Depth: int(depth), at: r,
			})
		}
	}
}

// tracer builds the counter-examples of one Explore's violations on
// demand, on worker 0, which it keeps reachable with the search's table
// for as long as a violation does. The move into a state is found by
// restoring its parent, re-enumerating the parent's moves and taking the
// recorded index; tracer memoises it per state, so the prefixes many
// violations share are restored once. The search is over, so parent
// links are read without the shard locks; mu serialises callers, which
// share the one worker's machines.
type tracer struct {
	mu     sync.Mutex
	e      *pexplorer
	w      *pworker
	memo   [tableShards][]int32 // by meta index: 1 + index into steps, 0 = not yet
	steps  []Move               // the move into each memoised state
	loaded ref                  // the state whose moves w.moves holds
	chain  []ref
}

// path returns the moves from the initial state to r, then final when
// it is a move.
func (t *tracer) path(r ref, final Move) ([]Move, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.chain = t.chain[:0]
	for cur := r; cur != refNil; cur = t.e.tbl.metaAfter(cur).parent {
		t.chain = append(t.chain, cur)
	}
	n := len(t.chain) - 1
	if final.Kind != 0 {
		n++
	}
	moves := make([]Move, n)
	// chain runs from r up to the root; walk it root-first, skipping the
	// root itself, which no move leads into.
	for i, j := len(t.chain)-2, 0; i >= 0; i, j = i-1, j+1 {
		mv, err := t.stepInto(t.chain[i], t.chain[i+1])
		if err != nil {
			return nil, err
		}
		moves[j] = mv
	}
	if final.Kind != 0 {
		moves[n-1] = final
	}
	return moves, nil
}

// stepInto returns the move from parent into child.
func (t *tracer) stepInto(child, parent ref) (Move, error) {
	memo := t.memo[child.shard()]
	if memo == nil {
		memo = make([]int32, len(t.e.tbl.shards[child.shard()].meta))
		t.memo[child.shard()] = memo
	}
	if k := memo[child.metaIdx()]; k > 0 {
		return t.steps[k-1], nil
	}
	if t.loaded != parent {
		t.w.load(parent)
		t.loaded = parent
	}
	mid := t.e.tbl.metaAfter(child).moveID
	if int(mid) >= len(t.w.moves) {
		return Move{}, fmt.Errorf("verify: trace: move %d of a state with %d moves", mid, len(t.w.moves))
	}
	mv := t.w.moves[mid]
	t.steps = append(t.steps, mv)
	memo[child.metaIdx()] = int32(len(t.steps))
	return mv, nil
}
