package verify

// ExploreSequential is the reference engine: the original single-
// threaded BFS over cloned machines and string state keys, retained as
// the independent oracle for the parallel engine (DESIGN.md §12). The
// differential tests pin Explore's results against it configuration by
// configuration, so the two implementations must agree move for move —
// both delegate to the shared enabledMoves/applyMove semantics.

import (
	"strings"
	"time"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// snode is one explored global state of the sequential engine.
type snode struct {
	machines []*fsm.Machine
	queues   [][]expr.Value
	key      string
	depth    int
}

type seqVisited struct {
	parent  string
	mv      Move
	hasMove bool
}

type sexplorer struct {
	opts    Options
	res     *Result
	visited map[string]seqVisited
	curNode *snode
	curMove Move
}

// ExploreSequential runs the reference breadth-first search. Options
// semantics match Explore, except Workers is ignored and
// StopAtFirstViolation stops mid-level (immediately after the finding).
func ExploreSequential(sys *System, opts Options) (*Result, error) {
	b, err := compileSystem(sys, opts.Invariants)
	if err != nil {
		return nil, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 1 << 20
	}
	start := time.Now()

	initial := &snode{
		machines: newMachines(b.progs),
		queues:   make([][]expr.Value, len(sys.Routes)),
	}
	initial.key = globalKey(sys, initial.machines, initial.queues)

	e := &sexplorer{opts: opts, res: &Result{
		Overruns: make([]uint64, len(sys.Routes)),
	}}
	e.visited = map[string]seqVisited{initial.key: {}}
	e.checkState(initial)
	queue := []*snode{initial}
	e.res.States = 1
	deliverArgs := deliverArgsFor(sys)
	onOverrun := e.onOverrun
	var moveBuf []Move
	frontierPeak := 1
	depth := 0

	for len(queue) > 0 && !(opts.StopAtFirstViolation && len(e.res.Violations) > 0) {
		if len(queue) > frontierPeak {
			frontierPeak = len(queue)
		}
		cur := queue[0]
		queue = queue[1:]
		if cur.depth > depth {
			depth = cur.depth
		}
		moveBuf = enabledMoves(sys, cur.machines, cur.queues, moveBuf)
		productive := false
		for _, mv := range moveBuf {
			next := cloneSnode(cur)
			e.curNode, e.curMove = cur, mv
			ar, err := applyMove(sys, next.machines, next.queues, mv, deliverArgs, onOverrun)
			if err != nil {
				e.violate(cur, &mv, Violation{
					Kind: ViolationStep, Name: mv.String(), Msg: err.Error(),
				})
				continue
			}
			e.res.Transitions++
			if ar.envNoop {
				continue
			}
			next.key = globalKey(sys, next.machines, next.queues)
			if next.key == cur.key {
				continue // fired but changed nothing
			}
			productive = true
			if _, seen := e.visited[next.key]; seen {
				e.res.Stats.DupHits++
				continue
			}
			if e.res.States >= opts.MaxStates {
				e.res.Truncated = true
				continue
			}
			next.depth = cur.depth + 1
			e.visited[next.key] = seqVisited{parent: cur.key, mv: mv, hasMove: true}
			e.res.States++
			e.checkState(next)
			queue = append(queue, next)
		}
		// Deadlock: the state can never change again (every move — if any —
		// is a no-op) and the system has not terminated cleanly.
		if opts.CheckDeadlock && !productive && !allFinal(cur.machines) {
			e.violate(cur, nil, Violation{
				Kind: ViolationDeadlock, Name: "deadlock",
				Msg: "no state-changing moves and not all machines final",
			})
		}
	}

	e.res.Stats.Workers = 1
	e.res.Stats.Depth = depth
	e.res.Stats.FrontierPeak = frontierPeak
	e.res.Stats.Elapsed = time.Since(start)
	if secs := e.res.Stats.Elapsed.Seconds(); secs > 0 {
		e.res.Stats.StatesPerSec = float64(e.res.States) / secs
	}
	return e.res, nil
}

// onOverrun counts the drop and applies the overrun invariant hook,
// anchored at the state and move being applied.
func (e *sexplorer) onOverrun(route int, dropped expr.Value) {
	e.res.Overruns[route]++
	if e.opts.OverrunInvariant == nil {
		return
	}
	if err := e.opts.OverrunInvariant(route, dropped); err != nil {
		mv := e.curMove
		e.violate(e.curNode, &mv, Violation{
			Kind: ViolationOverrun, Name: "channel-overrun", Msg: err.Error(),
		})
	}
}

func (e *sexplorer) checkState(n *snode) {
	for i := range e.opts.Invariants {
		inv := &e.opts.Invariants[i]
		if err := inv.evalMachines(n.machines); err != nil {
			e.violate(n, nil, Violation{Kind: ViolationInvariant, Name: inv.Name, Msg: err.Error()})
		}
	}
}

// violate records a violation anchored at n; extra, when non-nil, is the
// offending move appended after the trace to n (step errors, overruns).
func (e *sexplorer) violate(n *snode, extra *Move, v Violation) {
	moves := e.movesTo(n.key)
	if extra != nil {
		moves = append(moves, *extra)
	}
	v.moves = moves
	v.Depth = n.depth
	e.res.Violations = append(e.res.Violations, v)
}

// movesTo reconstructs the move sequence from the initial state.
func (e *sexplorer) movesTo(key string) []Move {
	var rev []Move
	for cur := key; ; {
		info, ok := e.visited[cur]
		if !ok || !info.hasMove {
			break
		}
		rev = append(rev, info.mv)
		cur = info.parent
	}
	out := make([]Move, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func cloneSnode(n *snode) *snode {
	machines := make([]*fsm.Machine, len(n.machines))
	for i, m := range n.machines {
		machines[i] = m.Clone()
	}
	// Queue headers are copied shallowly: applyMove replaces queue slices
	// copy-on-write and never writes the shared backing arrays.
	queues := make([][]expr.Value, len(n.queues))
	copy(queues, n.queues)
	return &snode{machines: machines, queues: queues, depth: n.depth}
}

// globalKey is the sequential engine's state identity: machine StateKeys
// plus queue HashKeys. Reordering routes sort their element keys — such
// queues are multisets, matching the canonical byte encoding.
func globalKey(sys *System, machines []*fsm.Machine, queues [][]expr.Value) string {
	var sb strings.Builder
	for _, m := range machines {
		sb.WriteString(m.StateKey())
		sb.WriteString("#")
	}
	for ri, q := range queues {
		sb.WriteString("[")
		if sys.Routes[ri].Reorder && len(q) > 1 {
			keys := make([]string, len(q))
			for i, msg := range q {
				keys[i] = msg.HashKey()
			}
			insertionSort(keys)
			for _, k := range keys {
				sb.WriteString(k)
				sb.WriteString(",")
			}
		} else {
			for _, msg := range q {
				sb.WriteString(msg.HashKey())
				sb.WriteString(",")
			}
		}
		sb.WriteString("]")
	}
	return sb.String()
}

func insertionSort(keys []string) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}
