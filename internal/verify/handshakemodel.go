// The connection-lifecycle model: the handshake.pdsl client and server
// closed over a pair of (optionally lossy/reordering) channels, with an
// off-path attacker injecting forged ACKCs as an environment stimulus.
// It pins down the lifecycle safety arguments the engine relies on:
//
//   - Cookie gating: server state is allocated (peers moves) only by an
//     ACKC carrying the cookie reflected for its own nonce — never by a
//     SYN (dup or reordered), never by a forged or replayed cookie.
//   - Teardown sync: a client that believes teardown completed (TimeWait,
//     or Down via the expiry path) cannot coexist with a server still in
//     Established — the FIN/FIN-ACK half-close actually quiesced.
//
// TIME_WAIT is where the second property earns its keep: the model can
// reincarnate the connection (Reincarnate option), and because FinAck
// frames carry no connection identity, a stale duplicate FinAck from the
// previous incarnation aliases perfectly into the next one's FinWait.
// The clean client sits in TimeWait until every FinAck it is owed has
// been absorbed (the untimed analog of outwaiting the segment lifetime,
// expressed as the guard fins == facks — exact on lossless channels,
// which Reincarnate therefore requires). The MutantNoTimeWait client
// reconnects straight off the first FinAck and the checker finds the
// aliasing trace: under reordering the stale FinAck outlives the new
// handshake, completes the new teardown early, and leaves the server
// established while the client believes the connection is gone.
//
// Model deviations from handshake.pdsl, all deliberate:
//   - Frame plumbing (magic, kind, sum8) is dropped; the codec owns it.
//   - The client's nonce is its incarnation number, not a CONNECT
//     argument, so reincarnations are distinguishable on the wire.
//   - FIN/FINACK events carry the (fieldless) message so the router can
//     bind them; the spec's events are bare.
//   - TimeWait counts absorbed FinAcks (facks) instead of ignoring them,
//     and EXPIRE is guarded on fins == facks as above.
package verify

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/wire"
)

// HSMutant selects a seeded lifecycle bug for gate-teeth rows.
type HSMutant int

const (
	_ HSMutant = iota // the zero HSMutant is the faithful model
	// MutantHalfOpenLeak allocates server state on SYN (peers moves in
	// reflect): the half-open exhaustion the stateless cookie exists to
	// prevent. Caught by the allocation bound.
	MutantHalfOpenLeak
	// MutantAcceptAnyCookie drops the cookie check on ACKC: the forged
	// ACKC the environment injects then allocates state for a peer that
	// never completed a round-trip. Caught by the allocation bound.
	MutantAcceptAnyCookie
	// MutantNoTimeWait reconnects straight off the first FinAck instead
	// of draining duplicates in TimeWait. Only expressible with
	// Reincarnate; caught by the teardown-sync invariant.
	MutantNoTimeWait
)

// HSOptions parameterises the connection-lifecycle model.
type HSOptions struct {
	// Capacity bounds each channel.
	Capacity int
	// Lossy adds drop moves; Reorder makes both channels reordering.
	Lossy   bool
	Reorder bool
	// Beats adds the heartbeat TICK stimulus and Beat/BeatAck routes.
	// Off by default: heartbeats triple the in-flight alphabet without
	// touching either safety property.
	Beats bool
	// Reincarnate lets the connection run twice back to back (TimeWait
	// expiry returns the client to Closed once, the server's DONE
	// returns it to Listen). Requires lossless channels: the TimeWait
	// quiescence guard counts FinAcks owed, which loss would strand.
	Reincarnate bool
	// Mutant seeds a lifecycle bug.
	Mutant HSMutant
}

func hsMessages() map[string]*wire.Message {
	u8 := func(name string) wire.Field { return wire.Field{Name: name, Kind: wire.FieldUint, Bits: 8} }
	return map[string]*wire.Message{
		"SynM":     {Name: "SynM", Fields: []wire.Field{u8("nonce")}},
		"SynAckM":  {Name: "SynAckM", Fields: []wire.Field{u8("nonce"), u8("cookie")}},
		"AckCM":    {Name: "AckCM", Fields: []wire.Field{u8("nonce"), u8("cookie")}},
		"FinM":     {Name: "FinM", Fields: []wire.Field{u8("kind")}},
		"FinAckM":  {Name: "FinAckM", Fields: []wire.Field{u8("kind")}},
		"BeatM":    {Name: "BeatM", Fields: []wire.Field{u8("seq")}},
		"BeatAckM": {Name: "BeatAckM", Fields: []wire.Field{u8("seq")}},
	}
}

// hsAutoIgnore fills the ignore table: every (state, event) pair with no
// declared transition absorbs the stimulus, mirroring the spec's
// exhaustive ignore block (and, at Down/Closed, the engine dropping
// frames for a torn-down flow).
func hsAutoIgnore(spec *fsm.Spec) {
	handled := make(map[[2]string]bool, len(spec.Transitions))
	for i := range spec.Transitions {
		t := &spec.Transitions[i]
		handled[[2]string{t.From, t.Event}] = true
	}
	for _, st := range spec.States {
		for _, ev := range spec.Events {
			if !handled[[2]string{st.Name, ev.Name}] {
				spec.Ignores = append(spec.Ignores, fsm.Ignore{State: st.Name, Event: ev.Name})
			}
		}
	}
}

// BuildHandshake assembles the closed lifecycle system: client index 0,
// server index 1. Check it against HSInvariant.
func BuildHandshake(opts HSOptions) (*System, error) {
	if opts.Capacity < 1 {
		return nil, fmt.Errorf("verify: handshake capacity must be >= 1, got %d", opts.Capacity)
	}
	if opts.Reincarnate && opts.Lossy {
		return nil, fmt.Errorf("verify: handshake Reincarnate requires lossless channels")
	}
	if opts.Mutant == MutantNoTimeWait && !opts.Reincarnate {
		return nil, fmt.Errorf("verify: MutantNoTimeWait is only observable with Reincarnate")
	}
	maxInc := 0
	if opts.Reincarnate {
		maxInc = 1
	}

	reset := []fsm.Assign{
		{Var: "inc", Expr: expr.MustParse("inc + 1")},
		{Var: "cookie", Expr: expr.MustParse("0")},
		{Var: "beats", Expr: expr.MustParse("0")},
		{Var: "fins", Expr: expr.MustParse("0")},
		{Var: "facks", Expr: expr.MustParse("0")},
	}
	client := &fsm.Spec{
		Name: "HSClient",
		Vars: []fsm.Var{
			{Name: "cookie", Type: expr.TU8},
			{Name: "beats", Type: expr.TU8},
			{Name: "inc", Type: expr.TU8},   // completed incarnations
			{Name: "fins", Type: expr.TU8},  // Fin frames sent this incarnation
			{Name: "facks", Type: expr.TU8}, // FinAck frames consumed this incarnation
			{Name: "torn", Type: expr.TU8},  // reached Down via completed teardown
		},
		States: []fsm.State{
			{Name: "Closed", Init: true},
			{Name: "SynSent"},
			{Name: "Established"},
			{Name: "FinWait"},
			{Name: "TimeWait"},
			{Name: "Down", Final: true},
		},
		Events: []fsm.Event{
			{Name: "CONNECT"},
			{Name: "RETRY"},
			{Name: "GIVEUP"},
			{Name: "SYNACK", Params: []fsm.Param{{Name: "s", Type: expr.TMsg("SynAckM")}}},
			{Name: "TICK"},
			{Name: "CLOSE"},
			{Name: "RECLOSE"},
			{Name: "FINACK", Params: []fsm.Param{{Name: "f", Type: expr.TMsg("FinAckM")}}},
			{Name: "BEATACK", Params: []fsm.Param{{Name: "b", Type: expr.TMsg("BeatAckM")}}},
			{Name: "PEER_DOWN"},
			{Name: "EXPIRE"},
		},
		Transitions: []fsm.Transition{
			{Name: "connect", From: "Closed", Event: "CONNECT", To: "SynSent",
				Outputs: []fsm.Output{{Message: "SynM", Fields: map[string]expr.Expr{
					"nonce": expr.MustParse("inc"),
				}}}},
			{Name: "retry", From: "SynSent", Event: "RETRY", To: "SynSent",
				Outputs: []fsm.Output{{Message: "SynM", Fields: map[string]expr.Expr{
					"nonce": expr.MustParse("inc"),
				}}}},
			{Name: "giveup", From: "SynSent", Event: "GIVEUP", To: "Down"},
			// The nonce guard is the engine's (client.go validates the
			// SynAck nonce against its own before stepping the machine):
			// without it a stale SynAck reflected for the previous
			// incarnation's retry completes the new handshake with the old
			// nonce and the lifecycle invariant is unprovable.
			{Name: "complete", From: "SynSent", Event: "SYNACK", To: "Established",
				Guard:   expr.MustParse("s.nonce == inc"),
				Assigns: []fsm.Assign{{Var: "cookie", Expr: expr.MustParse("s.cookie")}},
				Outputs: []fsm.Output{{Message: "AckCM", Fields: map[string]expr.Expr{
					"nonce":  expr.MustParse("s.nonce"),
					"cookie": expr.MustParse("s.cookie"),
				}}}},
			{Name: "beat", From: "Established", Event: "TICK", To: "Established",
				Assigns: []fsm.Assign{{Var: "beats", Expr: expr.MustParse("1 - beats")}},
				Outputs: []fsm.Output{{Message: "BeatM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("1 - beats"),
				}}}},
			{Name: "close", From: "Established", Event: "CLOSE", To: "FinWait",
				Assigns: []fsm.Assign{{Var: "fins", Expr: expr.MustParse("1")}},
				Outputs: []fsm.Output{{Message: "FinM", Fields: map[string]expr.Expr{"kind": expr.MustParse("4")}}}},
			{Name: "reclose", From: "FinWait", Event: "RECLOSE", To: "FinWait",
				Guard:   expr.MustParse("fins < 2"),
				Assigns: []fsm.Assign{{Var: "fins", Expr: expr.MustParse("fins + 1")}},
				Outputs: []fsm.Output{{Message: "FinM", Fields: map[string]expr.Expr{"kind": expr.MustParse("4")}}}},
			{Name: "peerdown", From: "Established", Event: "PEER_DOWN", To: "Down"},
			{Name: "abort", From: "FinWait", Event: "PEER_DOWN", To: "Down"},
		},
		Messages: hsMessages(),
	}
	countFack := fsm.Assign{Var: "facks", Expr: expr.MustParse("facks + 1")}
	if opts.Mutant == MutantNoTimeWait {
		// Seeded bug: skip TimeWait entirely — reconnect (or finish)
		// straight off the first FinAck, dup FinAcks still in flight.
		client.Transitions = append(client.Transitions,
			fsm.Transition{Name: "finack_skip", From: "FinWait", Event: "FINACK", To: "Closed",
				Guard:   expr.MustParse(fmt.Sprintf("inc < %d", maxInc)),
				Assigns: reset},
			fsm.Transition{Name: "finack_done", From: "FinWait", Event: "FINACK", To: "Down",
				Guard:   expr.MustParse(fmt.Sprintf("inc == %d", maxInc)),
				Assigns: []fsm.Assign{{Var: "torn", Expr: expr.MustParse("1")}}},
		)
	} else {
		client.Transitions = append(client.Transitions,
			fsm.Transition{Name: "finack", From: "FinWait", Event: "FINACK", To: "TimeWait",
				Assigns: []fsm.Assign{countFack}},
			fsm.Transition{Name: "absorb", From: "TimeWait", Event: "FINACK", To: "TimeWait",
				Assigns: []fsm.Assign{countFack}},
			fsm.Transition{Name: "expire_done", From: "TimeWait", Event: "EXPIRE", To: "Down",
				Guard:   expr.MustParse(fmt.Sprintf("fins == facks && inc == %d", maxInc)),
				Assigns: []fsm.Assign{{Var: "torn", Expr: expr.MustParse("1")}}},
		)
		if opts.Reincarnate {
			client.Transitions = append(client.Transitions,
				fsm.Transition{Name: "expire_again", From: "TimeWait", Event: "EXPIRE", To: "Closed",
					Guard:   expr.MustParse(fmt.Sprintf("fins == facks && inc < %d", maxInc)),
					Assigns: reset})
		}
	}
	hsAutoIgnore(client)

	acceptGuard := expr.MustParse("a.cookie == a.nonce + 1")
	if opts.Mutant == MutantAcceptAnyCookie {
		acceptGuard = nil // seeded bug: any cookie allocates
	}
	reflect := fsm.Transition{Name: "reflect", From: "Listen", Event: "SYN", To: "Listen",
		Outputs: []fsm.Output{{Message: "SynAckM", Fields: map[string]expr.Expr{
			"nonce":  expr.MustParse("a.nonce"),
			"cookie": expr.MustParse("a.nonce + 1"),
		}}}}
	var leak *fsm.Transition
	if opts.Mutant == MutantHalfOpenLeak {
		// Seeded bug: the reflect allocates — SYN floods pin state. The
		// counter saturates at 3 purely to keep the mutant's state space
		// bounded under unbounded retries; the very first SYN already
		// breaches the allocation bound.
		reflect.Guard = expr.MustParse("peers >= 3")
		l := reflect
		l.Name = "reflect_leak"
		l.Guard = expr.MustParse("peers < 3")
		l.Assigns = []fsm.Assign{{Var: "peers", Expr: expr.MustParse("peers + 1")}}
		leak = &l
	}
	doneTo := "Closed"
	if opts.Reincarnate {
		doneTo = "Listen"
	}
	finAckOut := []fsm.Output{{Message: "FinAckM", Fields: map[string]expr.Expr{"kind": expr.MustParse("5")}}}
	server := &fsm.Spec{
		Name: "HSServer",
		Vars: []fsm.Var{{Name: "peers", Type: expr.TU8}},
		States: []fsm.State{
			{Name: "Listen", Init: true},
			{Name: "Established"},
			{Name: "Drained"},
			{Name: "Closed", Final: true},
		},
		Events: []fsm.Event{
			{Name: "SYN", Params: []fsm.Param{{Name: "a", Type: expr.TMsg("SynM")}}},
			{Name: "ACKC", Params: []fsm.Param{{Name: "a", Type: expr.TMsg("AckCM")}}},
			{Name: "BEAT", Params: []fsm.Param{{Name: "b", Type: expr.TMsg("BeatM")}}},
			{Name: "FIN", Params: []fsm.Param{{Name: "f", Type: expr.TMsg("FinM")}}},
			{Name: "PEER_DOWN"},
			{Name: "DONE"},
		},
		Transitions: []fsm.Transition{
			reflect,
			{Name: "accept", From: "Listen", Event: "ACKC", To: "Established",
				Guard:   acceptGuard,
				Assigns: []fsm.Assign{{Var: "peers", Expr: expr.MustParse("peers + 1")}}},
			{Name: "beatack", From: "Established", Event: "BEAT", To: "Established",
				Outputs: []fsm.Output{{Message: "BeatAckM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("b.seq"),
				}}}},
			{Name: "fin", From: "Established", Event: "FIN", To: "Drained", Outputs: finAckOut},
			{Name: "refin", From: "Drained", Event: "FIN", To: "Drained", Outputs: finAckOut},
			{Name: "peerdown", From: "Established", Event: "PEER_DOWN", To: "Closed"},
			{Name: "done", From: "Drained", Event: "DONE", To: doneTo},
		},
		Messages: hsMessages(),
	}
	if opts.Mutant != MutantAcceptAnyCookie {
		server.Transitions = append(server.Transitions,
			fsm.Transition{Name: "reject", From: "Listen", Event: "ACKC", To: "Listen",
				Guard: expr.MustParse("a.cookie != a.nonce + 1")})
	}
	if leak != nil {
		server.Transitions = append(server.Transitions, *leak)
	}
	hsAutoIgnore(server)

	routes := []Route{
		{From: 0, Message: "SynM", To: 1, Event: "SYN", Param: "a",
			Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
		{From: 0, Message: "AckCM", To: 1, Event: "ACKC", Param: "a",
			Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
		{From: 0, Message: "FinM", To: 1, Event: "FIN", Param: "f",
			Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
		{From: 1, Message: "SynAckM", To: 0, Event: "SYNACK", Param: "s",
			Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
		{From: 1, Message: "FinAckM", To: 0, Event: "FINACK", Param: "f",
			Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
	}
	env := []EnvEvent{
		{Machine: 0, Event: "CONNECT"},
		{Machine: 0, Event: "RETRY"},
		{Machine: 0, Event: "GIVEUP"},
		{Machine: 0, Event: "CLOSE"},
		{Machine: 0, Event: "RECLOSE"},
		{Machine: 0, Event: "PEER_DOWN"},
		{Machine: 0, Event: "EXPIRE"},
		{Machine: 1, Event: "PEER_DOWN"},
		{Machine: 1, Event: "DONE"},
		// The off-path attacker: an ACKC whose cookie was minted for a
		// different nonce (a replay). It must never allocate.
		{Machine: 1, Event: "ACKC", Args: []map[string]expr.Value{{
			"a": expr.Msg("AckCM", map[string]expr.Value{
				"nonce":  expr.U8(7),
				"cookie": expr.U8(9),
			}),
		}}},
	}
	if opts.Beats {
		routes = append(routes,
			Route{From: 0, Message: "BeatM", To: 1, Event: "BEAT", Param: "b",
				Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
			Route{From: 1, Message: "BeatAckM", To: 0, Event: "BEATACK", Param: "b",
				Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder})
		env = append(env, EnvEvent{Machine: 0, Event: "TICK"})
	}

	return &System{Specs: []*fsm.Spec{client, server}, Routes: routes, Env: env}, nil
}

// HSInvariant is the lifecycle safety property, two clauses:
//
// Allocation bound: the server's peers counter never exceeds the
// client's completed incarnations plus one for the incarnation currently
// past SynSent — i.e. server state exists only for clients that
// completed the cookie round-trip. SYN floods, dup/reordered SYNs and
// forged ACKCs all stay on the zero side of the bound.
//
// Teardown sync: a client in TimeWait, or Down via completed teardown
// (torn), implies the server is no longer Established: the half-close
// actually drained the server before the client walked away.
func HSInvariant() Invariant {
	vars := []varRef{{0, "inc"}, {0, "torn"}, {1, "peers"}}
	return readsInvariant("hs-lifecycle", vars, []int{0, 1}, func(u []uint64, st []string) error {
		inc, torn, peers := u[0], u[1], u[2]
		cState, sState := st[0], st[1]
		engaged := uint64(0)
		if cState != "Closed" && cState != "SynSent" {
			engaged = 1
		}
		if peers > inc+engaged {
			return fmt.Errorf("server allocated %d peers for %d completed incarnations (client %s): half-open state leaked",
				peers, inc, cState)
		}
		if (cState == "TimeWait" || (cState == "Down" && torn == 1)) && sState == "Established" {
			return fmt.Errorf("client finished teardown (%s) while server still Established", cState)
		}
		return nil
	})
}
