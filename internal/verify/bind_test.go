package verify

import (
	"fmt"
	"strings"
	"testing"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
)

// TestMisboundSystemsFailBeforeSearch covers every class of binding
// error compileSystem rejects: both engines must return the same error,
// naming the machine and the event, parameter or variable, and no
// result — no state is explored.
func TestMisboundSystemsFailBeforeSearch(t *testing.T) {
	gtoInvariant := func(seqSpace int) Invariant {
		inv := GBNInvariant(seqSpace)
		inv.vars = []varRef{{0, "base"}, {0, "outst"}, {0, "snd"}, {1, "expected"}, {1, "gto"}}
		return inv
	}
	noCheck := func(u []uint64, st []string) error { return nil }
	cases := []struct {
		name  string
		build func(t *testing.T) (*System, []Invariant)
		want  []string // substrings of the error
	}{
		{"undeclared env event", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Env = append(sys.Env, EnvEvent{Machine: 1, Event: "NOPE"})
			return sys, nil
		}, []string{"env event 3", "machine 1 (ModelReceiver4)", `no event "NOPE"`}},
		{"env argument that is no parameter", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Env = append(sys.Env, EnvEvent{Machine: 0, Event: "SEND", Args: []map[string]expr.Value{{"x": expr.U8(1)}}})
			return sys, nil
		}, []string{"machine 0 (ModelSender4)", "event SEND", `argument "x" is not a parameter`}},
		{"env argument of the wrong kind", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Env = append(sys.Env, EnvEvent{Machine: 0, Event: "ACK", Args: []map[string]expr.Value{{"a": expr.U8(3)}}})
			return sys, nil
		}, []string{"machine 0 (ModelSender4)", "event ACK", `argument "a" is uint, want AckM`}},
		{"env argument missing", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Env = append(sys.Env, EnvEvent{Machine: 0, Event: "ACK"})
			return sys, nil
		}, []string{"machine 0 (ModelSender4)", "event ACK", `no argument for parameter "a"`}},
		{"route param that is not the event's", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Routes[1].Param = "wrong"
			return sys, nil
		}, []string{"route 1", "machine 0 (ModelSender4) event ACK takes (a AckM), not (wrong AckM)"}},
		{"route message that is not the event's", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Routes[0].Message = "AckM"
			return sys, nil
		}, []string{"route 0", "machine 1 (ModelReceiver4) event RECV takes (p Pkt), not (p AckM)"}},
		{"route to an undeclared event", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Routes[0].Event = "NOPE"
			return sys, nil
		}, []string{"route 0", "machine 1 (ModelReceiver4)", `no event "NOPE"`}},
		{"invariant variable that does not exist", func(t *testing.T) (*System, []Invariant) {
			sys, err := BuildGBN(GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 1})
			if err != nil {
				t.Fatal(err)
			}
			return sys, []Invariant{gtoInvariant(4)}
		}, []string{`invariant "gbn-window"`, "machine 1 (GBNReceiver", `no variable "gto"`}},
		{"invariant variable that is not a uint", func(t *testing.T) (*System, []Invariant) {
			sys := arqSystem(t)
			sys.Specs[1].Vars = append(sys.Specs[1].Vars, fsm.Var{Name: "flag", Type: expr.TBool})
			return sys, []Invariant{readsInvariant("flag", []varRef{{1, "flag"}}, nil, noCheck)}
		}, []string{`invariant "flag"`, "machine 1 (ModelReceiver4)", `variable "flag" is bool, not a uint`}},
		{"invariant variable of a machine out of range", func(t *testing.T) (*System, []Invariant) {
			return arqSystem(t), []Invariant{readsInvariant("far", []varRef{{2, "seq"}}, nil, noCheck)}
		}, []string{`invariant "far" reads machine 2, out of range`}},
		{"invariant state of a machine out of range", func(t *testing.T) (*System, []Invariant) {
			return arqSystem(t), []Invariant{readsInvariant("far", nil, []int{-1}, noCheck)}
		}, []string{`invariant "far" reads the state of machine -1, out of range`}},
		{"invariant without a check", func(t *testing.T) (*System, []Invariant) {
			return arqSystem(t), []Invariant{{Name: "bare"}}
		}, []string{`invariant "bare" has no check`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, invs := tc.build(t)
			opts := Options{Invariants: invs, Workers: 2}
			par, perr := Explore(sys, opts)
			seq, serr := ExploreSequential(sys, opts)
			if perr == nil || serr == nil {
				t.Fatalf("Explore err = %v, ExploreSequential err = %v; want both to fail", perr, serr)
			}
			if par != nil || seq != nil {
				t.Errorf("a misbound system returned a result")
			}
			if perr.Error() != serr.Error() {
				t.Errorf("engines disagree:\n Explore:           %v\n ExploreSequential: %v", perr, serr)
			}
			for _, w := range tc.want {
				if !strings.Contains(perr.Error(), w) {
					t.Errorf("error %q does not contain %q", perr, w)
				}
			}
		})
	}
}

func arqSystem(t *testing.T) *System {
	t.Helper()
	sys, err := BuildARQ(ARQOptions{SeqSpace: 4, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestInvariantReadsInternedUint pins an invariant over a uint variable
// whose initial value has another width, which the state record holds
// as an interned value rather than a packed field: both engines read
// the same value.
func TestInvariantReadsInternedUint(t *testing.T) {
	sys := arqSystem(t)
	sys.Specs[0].Vars = append(sys.Specs[0].Vars, fsm.Var{Name: "wide", Type: expr.TU16, Init: expr.U8(7)})
	inv := readsInvariant("wide", []varRef{{0, "wide"}}, []int{0}, func(u []uint64, st []string) error {
		if u[0] == 7 && st[0] == "Ready" {
			return fmt.Errorf("wide=%d in %s", u[0], st[0])
		}
		return nil
	})
	opts := Options{Invariants: []Invariant{inv}, Workers: 2}
	e, err := newExplorer(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if k := e.lay.machines[0].vars[1].kind; k != varInterned {
		t.Fatalf("wide is held as kind %d, want interned", k)
	}
	seq, err := ExploreSequential(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Violations) == 0 || seq.Violations[0].Msg != "wide=7 in Ready" {
		t.Fatalf("reference engine violations %v, want wide=7 in Ready", seq.Violations)
	}
	diffCompare(t, "interned-uint", seq, par)
}
