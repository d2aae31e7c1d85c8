package verify

// Sliding-window ARQ models: Go-Back-N and Selective Repeat. These are
// the configurations the sequential checker could not drive far — the
// window multiplies the in-flight state and the reordering channel
// variants multiply the interleavings — and the reason the parallel
// engine exists (DESIGN.md §12).
//
// Both models bound the session: the sender transmits at most Total
// distinct packets, and the receiver counts accepted packets. The
// integrity half of each invariant — "the receiver has not accepted more
// packets than the sender sent" — is what catches sequence-number
// aliasing: when the sequence space is too small (GBN needs
// SeqSpace >= Window+1, SR with window 2 needs SeqSpace >= 4), a
// retransmitted old packet is indistinguishable from a new one and the
// receiver double-counts it. Those undersized configurations are kept as
// seeded bugs the verification gate must catch.

import (
	"fmt"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// GBNOptions parameterises the Go-Back-N model.
type GBNOptions struct {
	// SeqSpace is the sequence-number modulus (2..64). Correct GBN needs
	// SeqSpace >= Window+1; SeqSpace == Window is the classic bug.
	SeqSpace int
	// Window is the sender window (1..8, <= SeqSpace).
	Window int
	// Total bounds the session: distinct packets sent (1..200).
	Total int
	// Capacity bounds each channel.
	Capacity int
	// Lossy adds drop moves; Reorder makes both channels reordering.
	Lossy   bool
	Reorder bool
}

// BuildGBN assembles the Go-Back-N sender/receiver system: sender index
// 0 (vars base, outst, snd), receiver index 1 (vars expected, got),
// data route 0 and ack route 1.
func BuildGBN(opts GBNOptions) (*System, error) {
	if err := windowedValidate(opts.SeqSpace, opts.Total, opts.Capacity); err != nil {
		return nil, err
	}
	if opts.Window < 1 || opts.Window > 8 || opts.Window > opts.SeqSpace {
		return nil, fmt.Errorf("verify: GBN window must be 1..8 and <= SeqSpace, got %d", opts.Window)
	}
	n, w, total := opts.SeqSpace, opts.Window, opts.Total

	sender := &fsm.Spec{
		Name: fmt.Sprintf("GBNSender%dw%d", n, w),
		Vars: []fsm.Var{
			{Name: "base", Type: expr.TU8},
			{Name: "outst", Type: expr.TU8},
			{Name: "snd", Type: expr.TU8},
		},
		States: []fsm.State{
			{Name: "Ready", Init: true},
			{Name: "Done", Final: true},
		},
		Events: []fsm.Event{
			{Name: "SEND"},
			{Name: "ACK", Params: []fsm.Param{{Name: "a", Type: expr.TMsg("AckM")}}},
			{Name: "TIMEOUT"},
			{Name: "FINISH"},
		},
		Transitions: []fsm.Transition{
			{Name: "send", From: "Ready", Event: "SEND", To: "Ready",
				Guard: expr.MustParse(fmt.Sprintf("outst < %d && snd < %d", w, total)),
				Assigns: []fsm.Assign{
					{Var: "outst", Expr: expr.MustParse("outst + 1")},
					{Var: "snd", Expr: expr.MustParse("snd + 1")},
				},
				Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{
					"seq": expr.MustParse(fmt.Sprintf("(base + outst) %% %d", n)),
				}}}},
			// Cumulative ack: a.seq acknowledges everything up to and
			// including it. In-window test and slide distance are both
			// computed mod n against the pre-state base.
			{Name: "ack", From: "Ready", Event: "ACK", To: "Ready",
				Guard: expr.MustParse(fmt.Sprintf("((a.seq + %d - base) %% %d) < outst", n, n)),
				Assigns: []fsm.Assign{
					{Var: "base", Expr: expr.MustParse(fmt.Sprintf("(a.seq + 1) %% %d", n))},
					{Var: "outst", Expr: expr.MustParse(fmt.Sprintf("outst - (((a.seq + %d - base) %% %d) + 1)", n, n))},
				}},
			{Name: "finish", From: "Ready", Event: "FINISH", To: "Done",
				Guard: expr.MustParse("outst == 0")},
		},
		Messages: modelMessages(),
	}
	// Go-back-N retransmission: a timeout resends the entire window.
	// Output lists are static per transition, so one transition per
	// possible outstanding count carries exactly that many packets.
	for k := 1; k <= w; k++ {
		tr := fsm.Transition{
			Name: fmt.Sprintf("rexmit%d", k), From: "Ready", Event: "TIMEOUT", To: "Ready",
			Guard: expr.MustParse(fmt.Sprintf("outst == %d", k)),
		}
		for i := 0; i < k; i++ {
			tr.Outputs = append(tr.Outputs, fsm.Output{Message: "Pkt", Fields: map[string]expr.Expr{
				"seq": expr.MustParse(fmt.Sprintf("(base + %d) %% %d", i, n)),
			}})
		}
		sender.Transitions = append(sender.Transitions, tr)
	}

	receiver := &fsm.Spec{
		Name: fmt.Sprintf("GBNReceiver%d", n),
		Vars: []fsm.Var{
			{Name: "expected", Type: expr.TU8},
			{Name: "got", Type: expr.TU8},
		},
		// Like the stop-and-wait model receiver, Recv declares no final
		// state (a liveness warning, not an error): the receiver serves
		// forever. GBN/SR configurations are checked without CheckDeadlock.
		States: []fsm.State{{Name: "Recv", Init: true}},
		Events: []fsm.Event{
			{Name: "RECV", Params: []fsm.Param{{Name: "p", Type: expr.TMsg("Pkt")}}},
		},
		Transitions: []fsm.Transition{
			{Name: "accept", From: "Recv", Event: "RECV", To: "Recv",
				Guard: expr.MustParse("p.seq == expected"),
				Assigns: []fsm.Assign{
					{Var: "expected", Expr: expr.MustParse(fmt.Sprintf("(expected + 1) %% %d", n))},
					{Var: "got", Expr: expr.MustParse("got + 1")},
				},
				Outputs: []fsm.Output{{Message: "AckM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse("p.seq"),
				}}}},
			// Out-of-order packet: re-ack the last in-order sequence
			// number (cumulative), which is expected-1 mod n.
			{Name: "reack", From: "Recv", Event: "RECV", To: "Recv",
				Guard: expr.MustParse("p.seq != expected"),
				Outputs: []fsm.Output{{Message: "AckM", Fields: map[string]expr.Expr{
					"seq": expr.MustParse(fmt.Sprintf("(expected + %d - 1) %% %d", n, n)),
				}}}},
		},
		Messages: modelMessages(),
	}

	return &System{
		Specs: []*fsm.Spec{sender, receiver},
		Routes: []Route{
			{From: 0, Message: "Pkt", To: 1, Event: "RECV", Param: "p",
				Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
			{From: 1, Message: "AckM", To: 0, Event: "ACK", Param: "a",
				Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
		},
		Env: []EnvEvent{
			{Machine: 0, Event: "SEND"},
			{Machine: 0, Event: "TIMEOUT"},
			{Machine: 0, Event: "FINISH"},
		},
	}, nil
}

// GBNInvariant is the Go-Back-N safety property: the receiver stays
// inside the sender's window and never accepts more packets than were
// sent.
func GBNInvariant(seqSpace int) Invariant {
	n := uint64(seqSpace)
	vars := []varRef{{0, "base"}, {0, "outst"}, {0, "snd"}, {1, "expected"}, {1, "got"}}
	return readsInvariant("gbn-window", vars, nil, func(u []uint64, _ []string) error {
		base, outst, snd, expected, got := u[0], u[1], u[2], u[3], u[4]
		if diff := (expected + n - base) % n; diff > outst {
			return fmt.Errorf("receiver expected %d is %d past sender base %d (outstanding %d)",
				expected, diff, base, outst)
		}
		if got > snd {
			return fmt.Errorf("receiver accepted %d packets, sender sent only %d", got, snd)
		}
		return nil
	})
}

// SROptions parameterises the Selective Repeat model.
type SROptions struct {
	// SeqSpace is the sequence-number modulus (2..64). Correct SR with
	// window W needs SeqSpace >= 2W; anything smaller is the classic
	// aliasing bug (SeqSpace 3 for the default window of 2).
	SeqSpace int
	// Window is the sender/receiver window (1..4); 0 selects 2, the
	// historical fixed size.
	Window int
	// Total bounds the session: distinct packets sent (1..200).
	Total int
	// Capacity bounds each channel.
	Capacity int
	// Lossy adds drop moves; Reorder makes both channels reordering.
	Lossy   bool
	Reorder bool
}

// maskRun counts the consecutive set bits of m starting at bit 0: how
// many already-acked (or already-buffered) successors slide out together
// with the packet at the window base.
func maskRun(m int) int {
	r := 0
	for m&1 == 1 {
		r++
		m >>= 1
	}
	return r
}

// BuildSR assembles the Selective Repeat system with a window of W:
// sender index 0 (vars base, outst, ackm, snd), receiver index 1 (vars
// expected, buf, got). Each outstanding packet has its own timeout
// stimulus (TIMEOUTk retransmits base+k) — retransmissions are
// selective, not go-back.
//
// The guard language has no bitwise operators, so the out-of-order
// bookkeeping — which of the in-flight successors are already acked
// (sender ackm) or buffered (receiver buf) — is modelled by enumerating
// one transition per concrete mask value: bit k-1 of the mask stands
// for offset base+k (resp. expected+k). With the default window of 2
// the masks collapse to the single 0/1 flag the fixed-window model
// used, so existing configurations explore the identical state space.
func BuildSR(opts SROptions) (*System, error) {
	if err := windowedValidate(opts.SeqSpace, opts.Total, opts.Capacity); err != nil {
		return nil, err
	}
	w := opts.Window
	if w == 0 {
		w = 2
	}
	if w < 1 || w > 4 {
		return nil, fmt.Errorf("verify: SR window must be 1..4, got %d", w)
	}
	n, total := opts.SeqSpace, opts.Total
	seq := func(offset int) expr.Expr {
		if offset == 0 {
			return expr.MustParse("base")
		}
		return expr.MustParse(fmt.Sprintf("(base + %d) %% %d", offset, n))
	}

	sender := &fsm.Spec{
		Name: fmt.Sprintf("SRSender%dw%d", n, w),
		Vars: []fsm.Var{
			{Name: "base", Type: expr.TU8},
			{Name: "outst", Type: expr.TU8},
			{Name: "ackm", Type: expr.TU8}, // bit k-1: base+k already acked
			{Name: "snd", Type: expr.TU8},
		},
		States: []fsm.State{
			{Name: "Ready", Init: true},
			{Name: "Done", Final: true},
		},
		Events: []fsm.Event{
			{Name: "SEND"},
			{Name: "ACK", Params: []fsm.Param{{Name: "a", Type: expr.TMsg("AckM")}}},
			{Name: "FINISH"},
		},
		Transitions: []fsm.Transition{
			{Name: "send", From: "Ready", Event: "SEND", To: "Ready",
				Guard: expr.MustParse(fmt.Sprintf("outst < %d && snd < %d", w, total)),
				Assigns: []fsm.Assign{
					{Var: "outst", Expr: expr.MustParse("outst + 1")},
					{Var: "snd", Expr: expr.MustParse("snd + 1")},
				},
				Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{
					"seq": expr.MustParse(fmt.Sprintf("(base + outst) %% %d", n)),
				}}}},
			{Name: "finish", From: "Ready", Event: "FINISH", To: "Done",
				Guard: expr.MustParse("outst == 0")},
		},
		Messages: modelMessages(),
	}
	for _, k := range timeoutOffsets(w) {
		sender.Events = append(sender.Events, fsm.Event{Name: fmt.Sprintf("TIMEOUT%d", k)})
	}
	// Ack handling, one transition per concrete (outst, ackm) pair. An
	// ack for base slides past it and every consecutively-acked
	// successor; an ack for an unacked successor marks its mask bit; any
	// other ack matches no guard and is consumed as a stale duplicate.
	for o := 1; o <= w; o++ {
		for m := 0; m < 1<<(o-1); m++ {
			d := 1 + maskRun(m)
			sender.Transitions = append(sender.Transitions, fsm.Transition{
				Name: fmt.Sprintf("ackslide_o%d_m%d", o, m), From: "Ready", Event: "ACK", To: "Ready",
				Guard: expr.MustParse(fmt.Sprintf("a.seq == base && outst == %d && ackm == %d", o, m)),
				Assigns: []fsm.Assign{
					{Var: "base", Expr: expr.MustParse(fmt.Sprintf("(base + %d) %% %d", d, n))},
					{Var: "outst", Expr: expr.MustParse(fmt.Sprintf("%d", o-d))},
					{Var: "ackm", Expr: expr.MustParse(fmt.Sprintf("%d", m>>d))},
				},
			})
			for k := 1; k < o; k++ {
				if m&(1<<(k-1)) != 0 {
					continue
				}
				sender.Transitions = append(sender.Transitions, fsm.Transition{
					Name: fmt.Sprintf("ackmark_o%d_m%d_k%d", o, m, k), From: "Ready", Event: "ACK", To: "Ready",
					Guard: expr.MustParse(fmt.Sprintf("a.seq == ((base + %d) %% %d) && outst == %d && ackm == %d", k, n, o, m)),
					Assigns: []fsm.Assign{
						{Var: "ackm", Expr: expr.MustParse(fmt.Sprintf("%d", m|1<<(k-1)))},
					},
				})
			}
		}
	}
	// Selective retransmission: TIMEOUTk resends base+k alone. The base
	// is by construction never acked while outstanding; higher offsets
	// retransmit only while their mask bit is clear.
	sender.Transitions = append(sender.Transitions, fsm.Transition{
		Name: "rexmit0", From: "Ready", Event: "TIMEOUT0", To: "Ready",
		Guard:   expr.MustParse("outst >= 1"),
		Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{"seq": seq(0)}}},
	})
	for k := 1; k < w; k++ {
		for o := k + 1; o <= w; o++ {
			for m := 0; m < 1<<(o-1); m++ {
				if m&(1<<(k-1)) != 0 {
					continue
				}
				sender.Transitions = append(sender.Transitions, fsm.Transition{
					Name: fmt.Sprintf("rexmit%d_o%d_m%d", k, o, m), From: "Ready", Event: fmt.Sprintf("TIMEOUT%d", k), To: "Ready",
					Guard:   expr.MustParse(fmt.Sprintf("outst == %d && ackm == %d", o, m)),
					Outputs: []fsm.Output{{Message: "Pkt", Fields: map[string]expr.Expr{"seq": seq(k)}}},
				})
			}
		}
	}

	receiver := &fsm.Spec{
		Name: fmt.Sprintf("SRReceiver%dw%d", n, w),
		Vars: []fsm.Var{
			{Name: "expected", Type: expr.TU8},
			{Name: "buf", Type: expr.TU8}, // bit k-1: expected+k buffered out of order
			{Name: "got", Type: expr.TU8},
		},
		// No final state, matching the other model receivers; see the GBN
		// receiver comment.
		States: []fsm.State{{Name: "Recv", Init: true}},
		Events: []fsm.Event{
			{Name: "RECV", Params: []fsm.Param{{Name: "p", Type: expr.TMsg("Pkt")}}},
		},
		Messages: modelMessages(),
	}
	ackOut := []fsm.Output{{Message: "AckM", Fields: map[string]expr.Expr{
		"seq": expr.MustParse("p.seq"),
	}}}
	// In-order arrival: deliver it plus every consecutively-buffered
	// successor, per concrete buffer mask.
	for m := 0; m < 1<<(w-1); m++ {
		d := 1 + maskRun(m)
		receiver.Transitions = append(receiver.Transitions, fsm.Transition{
			Name: fmt.Sprintf("inorder_m%d", m), From: "Recv", Event: "RECV", To: "Recv",
			Guard: expr.MustParse(fmt.Sprintf("p.seq == expected && buf == %d", m)),
			Assigns: []fsm.Assign{
				{Var: "expected", Expr: expr.MustParse(fmt.Sprintf("(expected + %d) %% %d", d, n))},
				{Var: "buf", Expr: expr.MustParse(fmt.Sprintf("%d", m>>d))},
				{Var: "got", Expr: expr.MustParse(fmt.Sprintf("got + %d", d))},
			},
			Outputs: ackOut,
		})
		// Out-of-order within the window: buffer (set the bit) or, when
		// already buffered, just re-ack the duplicate.
		for k := 1; k < w; k++ {
			guard := fmt.Sprintf("p.seq == ((expected + %d) %% %d) && buf == %d", k, n, m)
			if m&(1<<(k-1)) == 0 {
				receiver.Transitions = append(receiver.Transitions, fsm.Transition{
					Name: fmt.Sprintf("buffer_m%d_k%d", m, k), From: "Recv", Event: "RECV", To: "Recv",
					Guard: expr.MustParse(guard),
					Assigns: []fsm.Assign{
						{Var: "buf", Expr: expr.MustParse(fmt.Sprintf("%d", m|1<<(k-1)))},
					},
					Outputs: ackOut,
				})
			} else {
				receiver.Transitions = append(receiver.Transitions, fsm.Transition{
					Name: fmt.Sprintf("bufdup_m%d_k%d", m, k), From: "Recv", Event: "RECV", To: "Recv",
					Guard:   expr.MustParse(guard),
					Outputs: ackOut,
				})
			}
		}
	}
	// Below the receive window: an already-delivered packet whose ack
	// was lost — re-ack it.
	receiver.Transitions = append(receiver.Transitions, fsm.Transition{
		Name: "old_dup", From: "Recv", Event: "RECV", To: "Recv",
		Guard:   expr.MustParse(fmt.Sprintf("((p.seq + %d - expected) %% %d) >= %d", n, n, w)),
		Outputs: ackOut,
	})

	env := []EnvEvent{
		{Machine: 0, Event: "SEND"},
	}
	for _, k := range timeoutOffsets(w) {
		env = append(env, EnvEvent{Machine: 0, Event: fmt.Sprintf("TIMEOUT%d", k)})
	}
	env = append(env, EnvEvent{Machine: 0, Event: "FINISH"})

	return &System{
		Specs: []*fsm.Spec{sender, receiver},
		Routes: []Route{
			{From: 0, Message: "Pkt", To: 1, Event: "RECV", Param: "p",
				Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
			{From: 1, Message: "AckM", To: 0, Event: "ACK", Param: "a",
				Capacity: opts.Capacity, Lossy: opts.Lossy, Reorder: opts.Reorder},
		},
		Env: env,
	}, nil
}

func timeoutOffsets(w int) []int {
	out := make([]int, w)
	for k := range out {
		out[k] = k
	}
	return out
}

// SRInvariant is the Selective Repeat safety property for the default
// window of 2; SRInvariantW is the general form.
func SRInvariant(seqSpace int) Invariant { return SRInvariantW(seqSpace, 2) }

// SRInvariantW is the Selective Repeat safety property: the receiver
// stays within the window of the sender's base, and delivered+buffered
// packets never exceed the packets actually sent.
func SRInvariantW(seqSpace, window int) Invariant {
	n, w := uint64(seqSpace), uint64(window)
	vars := []varRef{{0, "base"}, {0, "snd"}, {1, "expected"}, {1, "buf"}, {1, "got"}}
	return readsInvariant("sr-window", vars, nil, func(u []uint64, _ []string) error {
		base, snd, expected, buf, got := u[0], u[1], u[2], u[3], u[4]
		if diff := (expected + n - base) % n; diff > w {
			return fmt.Errorf("receiver expected %d is %d past sender base %d", expected, diff, base)
		}
		buffered := uint64(0)
		for m := buf; m != 0; m >>= 1 {
			buffered += m & 1
		}
		if got+buffered > snd {
			return fmt.Errorf("receiver holds %d packets (%d delivered, %d buffered), sender sent only %d",
				got+buffered, got, buffered, snd)
		}
		return nil
	})
}

func windowedValidate(seqSpace, total, capacity int) error {
	if seqSpace < 2 || seqSpace > 64 {
		return fmt.Errorf("verify: SeqSpace must be 2..64, got %d", seqSpace)
	}
	if total < 1 || total > 200 {
		return fmt.Errorf("verify: Total must be 1..200, got %d", total)
	}
	if capacity < 1 {
		return fmt.Errorf("verify: Capacity must be >= 1, got %d", capacity)
	}
	return nil
}
