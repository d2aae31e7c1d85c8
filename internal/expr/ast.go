package expr

import (
	"fmt"
	"strings"
)

// Op enumerates the unary and binary operators of the language.
type Op int

// Operators. Precedence follows Go.
const (
	_        Op = iota // the zero Op is invalid
	OpOr               // ||
	OpAnd              // &&
	OpEq               // ==
	OpNe               // !=
	OpLt               // <
	OpLe               // <=
	OpGt               // >
	OpGe               // >=
	OpAdd              // +
	OpSub              // -
	OpMul              // *
	OpDiv              // /
	OpMod              // %
	OpBitAnd           // &
	OpBitOr            // |
	OpBitXor           // ^
	OpShl              // <<
	OpShr              // >>
	OpNot              // ! (unary)
	OpNeg              // - (unary; two's-complement at operand width)
)

var opNames = map[Op]string{
	OpOr: "||", OpAnd: "&&", OpEq: "==", OpNe: "!=",
	OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpBitAnd: "&", OpBitOr: "|", OpBitXor: "^", OpShl: "<<", OpShr: ">>",
	OpNot: "!", OpNeg: "-",
}

// String returns the operator's surface syntax.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "?"
}

// Expr is a node of the expression AST.
type Expr interface {
	// String renders the expression back to surface syntax.
	String() string
	// Pos returns the 1-based byte offset of the node in its source.
	Pos() int
	exprNode()
}

// Lit is an unsigned-integer, boolean or string literal.
type Lit struct {
	Val    Value
	Offset int
}

// Ident is a variable reference.
type Ident struct {
	Name   string
	Offset int
}

// FieldAccess is `expr.field` on a message value.
type FieldAccess struct {
	X      Expr
	Name   string
	Offset int
}

// Unary is a unary operator application.
type Unary struct {
	Op     Op
	X      Expr
	Offset int
}

// Binary is a binary operator application.
type Binary struct {
	Op     Op
	X, Y   Expr
	Offset int
}

// Call is a builtin-function application.
type Call struct {
	Func   string
	Args   []Expr
	Offset int
}

func (*Lit) exprNode()         {}
func (*Ident) exprNode()       {}
func (*FieldAccess) exprNode() {}
func (*Unary) exprNode()       {}
func (*Binary) exprNode()      {}
func (*Call) exprNode()        {}

// Pos implements Expr.
func (e *Lit) Pos() int { return e.Offset }

// Pos implements Expr.
func (e *Ident) Pos() int { return e.Offset }

// Pos implements Expr.
func (e *FieldAccess) Pos() int { return e.Offset }

// Pos implements Expr.
func (e *Unary) Pos() int { return e.Offset }

// Pos implements Expr.
func (e *Binary) Pos() int { return e.Offset }

// Pos implements Expr.
func (e *Call) Pos() int { return e.Offset }

// String implements Expr.
func (e *Lit) String() string {
	switch e.Val.Kind() {
	case KindUint:
		return fmt.Sprintf("%d", e.Val.AsUint())
	case KindBool:
		return fmt.Sprintf("%t", e.Val.AsBool())
	case KindString:
		return fmt.Sprintf("%q", e.Val.AsString())
	default:
		return e.Val.String()
	}
}

// String implements Expr.
func (e *Ident) String() string { return e.Name }

// String implements Expr.
func (e *FieldAccess) String() string { return e.X.String() + "." + e.Name }

// String implements Expr.
func (e *Unary) String() string { return e.Op.String() + parenIfBinary(e.X) }

// String implements Expr.
func (e *Binary) String() string {
	return parenIfBinary(e.X) + " " + e.Op.String() + " " + parenIfBinary(e.Y)
}

// String implements Expr.
func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Func + "(" + strings.Join(args, ", ") + ")"
}

func parenIfBinary(e Expr) string {
	if _, ok := e.(*Binary); ok {
		return "(" + e.String() + ")"
	}
	return e.String()
}
