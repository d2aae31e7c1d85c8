package dsl

import (
	"errors"
	"fmt"
	"testing"

	"protodsl/examples/specs"
	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// This file differentially tests the compiled expression engine against
// the tree-walking interpreter: every checked expression reachable from
// the canonical ARQ and IPv4 protocol definitions — transition guards,
// assignment right-hand sides, output fields, computed message fields
// and length expressions — is evaluated through both expr.Eval and the
// expr.Compile closure over several scopes, and the results (values and
// errors, including division by zero and undefined variables) must be
// identical.

// sampleValue builds a deterministic value of the given type; seed
// varies the payload so guards exercise both branches.
func sampleValue(t expr.Type, msgs map[string]*wire.Message, seed uint64) expr.Value {
	switch t.Kind {
	case expr.KindBool:
		return expr.Bool(seed%2 == 0)
	case expr.KindUint:
		return expr.Uint(seed*3+1, t.Bits)
	case expr.KindBytes:
		return expr.Bytes([]byte{byte(seed), byte(seed + 1), byte(seed + 2)})
	case expr.KindString:
		return expr.Str(fmt.Sprintf("s%d", seed))
	case expr.KindMsg:
		m := msgs[t.MsgName]
		fields := make(map[string]expr.Value, len(m.Fields))
		for i := range m.Fields {
			f := &m.Fields[i]
			fields[f.Name] = sampleValue(f.Type(), msgs, seed+uint64(i))
		}
		return expr.Msg(t.MsgName, fields)
	default:
		return expr.Value{}
	}
}

// diffCase is one (expression, scope-variable-types) pair to compare.
type diffCase struct {
	where string
	e     expr.Expr
	vars  map[string]expr.Type
}

// collectCases walks a compiled protocol and gathers every expression
// with its typing scope.
func collectCases(t *testing.T, proto *Protocol) []diffCase {
	t.Helper()
	var cases []diffCase
	for _, name := range proto.MessageOrder {
		m := proto.Messages[name]
		for i := range m.Fields {
			f := &m.Fields[i]
			// Scope of computed fields: the message's plain fields.
			// Scope of length expressions: the preceding fields. The plain
			// scope is a superset for sampling purposes.
			scope := make(map[string]expr.Type)
			for j := range m.Fields {
				g := &m.Fields[j]
				if g.Compute == nil {
					scope[g.Name] = g.Type()
				}
			}
			if f.Compute != nil && f.Compute.Kind == wire.ComputeExpr {
				cases = append(cases, diffCase{
					where: fmt.Sprintf("message %s field %s compute", name, f.Name),
					e:     f.Compute.Expr, vars: scope,
				})
			}
			if f.LenKind == wire.LenExpr {
				prefix := make(map[string]expr.Type)
				for j := 0; j < i; j++ {
					prefix[m.Fields[j].Name] = m.Fields[j].Type()
				}
				cases = append(cases, diffCase{
					where: fmt.Sprintf("message %s field %s length", name, f.Name),
					e:     f.LenExpr, vars: prefix,
				})
			}
		}
	}
	for _, spec := range proto.Machines {
		for i := range spec.Transitions {
			tr := &spec.Transitions[i]
			ev, ok := spec.EventByName(tr.Event)
			if !ok {
				t.Fatalf("transition %s: unknown event", tr.String())
			}
			scope := make(map[string]expr.Type)
			for _, v := range spec.Vars {
				scope[v.Name] = v.Type
			}
			for _, p := range ev.Params {
				scope[p.Name] = p.Type
			}
			if tr.Guard != nil {
				cases = append(cases, diffCase{
					where: fmt.Sprintf("machine %s %s guard", spec.Name, tr.String()),
					e:     tr.Guard, vars: scope,
				})
			}
			for _, a := range tr.Assigns {
				cases = append(cases, diffCase{
					where: fmt.Sprintf("machine %s %s assign %s", spec.Name, tr.String(), a.Var),
					e:     a.Expr, vars: scope,
				})
			}
			for _, out := range tr.Outputs {
				for fname, fe := range out.Fields {
					cases = append(cases, diffCase{
						where: fmt.Sprintf("machine %s %s output %s.%s", spec.Name, tr.String(), out.Message, fname),
						e:     fe, vars: scope,
					})
				}
			}
		}
	}
	return cases
}

// runDiff evaluates the expression through both engines over the given
// concrete scope and requires identical outcomes.
func runDiff(t *testing.T, where string, e expr.Expr, vals map[string]expr.Value) {
	t.Helper()
	scope := expr.MapScope(vals)
	layout := expr.NewScopeLayout()
	for name := range vals {
		layout.Add(name)
	}
	frame := layout.NewFrame()
	for name, v := range vals {
		slot, _ := layout.Slot(name)
		frame.Set(slot, v)
	}
	compiled := expr.Compile(e, layout)

	wantV, wantErr := expr.Eval(e, scope)
	gotV, gotErr := compiled(frame)

	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: %s: eval err = %v, compiled err = %v", where, e.String(), wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: %s: error mismatch\n eval:     %v\n compiled: %v", where, e.String(), wantErr, gotErr)
		}
		if errors.Is(wantErr, expr.ErrDivisionByZero) != errors.Is(gotErr, expr.ErrDivisionByZero) {
			t.Fatalf("%s: %s: division-by-zero classification differs", where, e.String())
		}
		return
	}
	if !wantV.Equal(gotV) {
		t.Fatalf("%s: %s: eval = %s, compiled = %s", where, e.String(), wantV, gotV)
	}
	if wantV.Kind() == expr.KindUint && wantV.Bits() != gotV.Bits() {
		t.Fatalf("%s: %s: width mismatch: eval u%d, compiled u%d", where, e.String(), wantV.Bits(), gotV.Bits())
	}
}

func TestCompiledEngineDifferential(t *testing.T) {
	total := 0
	for _, src := range []struct {
		name   string
		source string
	}{
		{"arq", specs.ARQ},
		{"ipv4", specs.IPv4},
	} {
		proto, _, err := Compile(src.source)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		cases := collectCases(t, proto)
		if len(cases) == 0 {
			t.Fatalf("%s: no expressions collected", src.name)
		}
		total += len(cases)
		for _, c := range cases {
			for seed := uint64(0); seed < 4; seed++ {
				vals := make(map[string]expr.Value, len(c.vars))
				for name, typ := range c.vars {
					vals[name] = sampleValue(typ, proto.Messages, seed)
				}
				runDiff(t, fmt.Sprintf("%s/%s/seed=%d", src.name, c.where, seed), c.e, vals)
			}
		}
	}
	t.Logf("compared %d checked expressions across both engines", total)
}

// TestCompiledEngineDifferentialErrors pins the two runtime failure
// modes: both engines must report division by zero and undefined
// variables identically (same sentinel, same message, same offset).
func TestCompiledEngineDifferentialErrors(t *testing.T) {
	vals := map[string]expr.Value{
		"seq":  expr.U8(7),
		"zero": expr.U8(0),
		"pkt": expr.Msg("Packet", map[string]expr.Value{
			"seq": expr.U8(7),
		}),
	}
	for _, src := range []string{
		"seq / zero",
		"seq % zero",
		"100 / (seq - 7)",
		"missing + 1",           // undefined variable
		"missing",               // bare undefined variable
		"pkt.nosuch == seq",     // missing message field
		"seq.field == 1",        // field access on non-message
		"pkt.seq == seq",        // success path through msg scope
		"seq / (zero + 1) + 2",  // success path with division
		"missing.field + horse", // undefined in nested position
	} {
		e, err := expr.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		runDiff(t, "errors", e, vals)
	}

	// Division by zero must carry the sentinel through the compiled path.
	e := expr.MustParse("seq / zero")
	layout := expr.NewScopeLayout()
	sSeq, sZero := layout.Add("seq"), layout.Add("zero")
	f := layout.NewFrame()
	f.Set(sSeq, expr.U8(7))
	f.Set(sZero, expr.U8(0))
	if _, err := expr.Compile(e, layout)(f); !errors.Is(err, expr.ErrDivisionByZero) {
		t.Fatalf("compiled division by zero: got %v, want ErrDivisionByZero", err)
	}
}
