package expr

import (
	"testing"
	"testing/quick"
)

// TestQuickExprParserNeverPanics: arbitrary byte strings parse or error,
// never panic.
func TestQuickExprParserNeverPanics(t *testing.T) {
	f := func(junk []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Parse(string(junk))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickEvalNeverPanics: evaluating parsed expressions against an
// arbitrary scope returns values or errors, never panics — Eval is used
// on every packet of a running protocol.
func TestQuickEvalNeverPanics(t *testing.T) {
	srcs := []string{
		"a + b", "a / b", "a % b", "p.f == a", "len(x)", "sum8(a, x)",
		"a << b", "!flag", "-a", "min(a, b) + max(a, b)",
	}
	exprs := make([]Expr, 0, len(srcs))
	for _, s := range srcs {
		exprs = append(exprs, MustParse(s))
	}
	f := func(av, bv uint64, flag bool, xs []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		scope := MapScope{
			"a":    Uint(av, 64),
			"b":    U8(bv),
			"flag": Bool(flag),
			"x":    Bytes(xs),
			"p":    Msg("P", map[string]Value{"f": U8(av)}),
		}
		for _, e := range exprs {
			_, _ = Eval(e, scope)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
