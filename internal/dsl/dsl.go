// Package dsl implements the surface protocol-description language: the
// textual DSL the paper argues for (§3.2), integrating message structure
// (ABNF/ASN.1's role), machine behaviour (FSM's role) and the validity
// conditions connecting them, in one definition.
//
// The shipped protocols are the .pdsl files in examples/specs (arq.pdsl
// is the paper's §3.4 stop-and-wait ARQ); docs/LANGUAGE.md describes the
// grammar.
//
// Parse turns source text into wire messages and fsm specs; Compile
// additionally runs every static check (wire.Compile, fsm.Check) so a
// compiled protocol is correct by construction: Compile succeeding *is*
// the proof the paper wants from the type checker.
//
// The grammar is line-oriented: one declaration per line, blocks opened
// by a trailing '{' and closed by a line containing only '}'. Comments
// run from "//" to end of line. Expressions (guards, computed fields,
// lengths, action values) use the internal/expr language.
//
// Concurrency: Parse and Compile are pure; a compiled Protocol (layouts,
// programs) is immutable and shareable across goroutines, but machines
// and codecs instantiated from it are single-owner.
package dsl

import (
	"fmt"
	"strconv"
	"strings"

	"protodsl/internal/expr"
	"protodsl/internal/fsm"
	"protodsl/internal/wire"
)

// Protocol is the parsed form of a .pdsl file.
type Protocol struct {
	Name string
	// Messages in declaration order (MessageOrder) and by name.
	Messages     map[string]*wire.Message
	MessageOrder []string
	// Machines in declaration order.
	Machines []*fsm.Spec
	// Layouts are the compiled wire layouts, keyed by message name.
	// Populated by Compile (nil after a bare Parse).
	Layouts map[string]*wire.Layout
	// Programs are the compiled execution programs, parallel to Machines.
	// Populated by Compile (nil after a bare Parse): the interpreter and
	// simulator endpoints execute these dispatch tables directly instead
	// of tree-walking the specs.
	Programs []*fsm.Program
}

// Machine returns the named machine spec.
func (p *Protocol) Machine(name string) (*fsm.Spec, bool) {
	for _, m := range p.Machines {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}

// Program returns the named machine's compiled program (only available
// after Compile).
func (p *Protocol) Program(name string) (*fsm.Program, bool) {
	for i, m := range p.Machines {
		if m.Name == name && i < len(p.Programs) {
			return p.Programs[i], true
		}
	}
	return nil, false
}

// NewMachine instantiates the named machine from its precompiled
// program — no re-check and no re-compilation, unlike fsm.NewMachine on
// the bare spec. It is only available on protocols built by Compile.
func (p *Protocol) NewMachine(name string) (*fsm.Machine, error) {
	prog, ok := p.Program(name)
	if !ok {
		return nil, fmt.Errorf("dsl: protocol %s has no compiled machine %q (was it built with Compile?)", p.Name, name)
	}
	return prog.NewMachine(), nil
}

// Layout returns the named message's compiled wire layout (only
// available after Compile).
func (p *Protocol) Layout(name string) (*wire.Layout, bool) {
	l, ok := p.Layouts[name]
	return l, ok
}

// ParseError reports a syntax problem with its 1-based line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
}

// Parse parses source text into a Protocol without running the semantic
// checks (use Compile for a checked protocol).
func Parse(src string) (*Protocol, error) {
	p := &parser{lines: splitLines(src)}
	return p.parseProtocol()
}

// Compile parses and fully checks the protocol: every message must
// wire-compile and every machine must pass fsm.Check with no errors.
// The per-machine reports are returned for diagnostics (they may carry
// warnings even on success).
//
// A successful Compile also lowers every artefact for execution: the
// message layouts are kept (Protocol.Layouts) and every machine is
// precompiled into a flat state×event dispatch table of slot-indexed
// closures (Protocol.Programs) that machines instantiated from the
// protocol execute directly.
func Compile(src string) (*Protocol, []*fsm.Report, error) {
	proto, err := Parse(src)
	if err != nil {
		return nil, nil, err
	}
	proto.Layouts = make(map[string]*wire.Layout, len(proto.MessageOrder))
	for _, name := range proto.MessageOrder {
		layout, err := wire.Compile(proto.Messages[name])
		if err != nil {
			return nil, nil, fmt.Errorf("dsl: %w", err)
		}
		proto.Layouts[name] = layout
	}
	reports := make([]*fsm.Report, 0, len(proto.Machines))
	for _, m := range proto.Machines {
		report := fsm.Check(m)
		reports = append(reports, report)
		if !report.OK() {
			return nil, reports, &fsm.CheckSpecError{Report: report}
		}
		prog, err := fsm.CompileSpecFromChecked(m, report)
		if err != nil {
			return nil, reports, fmt.Errorf("dsl: compile machine %s: %w", m.Name, err)
		}
		proto.Programs = append(proto.Programs, prog)
	}
	return proto, reports, nil
}

// line is one logical source line.
type line struct {
	num  int
	text string
}

func splitLines(src string) []line {
	raw := strings.Split(src, "\n")
	out := make([]line, 0, len(raw))
	for i, l := range raw {
		if idx := strings.Index(l, "//"); idx >= 0 {
			l = l[:idx]
		}
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		out = append(out, line{num: i + 1, text: l})
	}
	return out
}

type parser struct {
	lines []line
	pos   int
}

func (p *parser) errf(n int, format string, args ...any) error {
	return &ParseError{Line: n, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) next() (line, bool) {
	if p.pos >= len(p.lines) {
		return line{}, false
	}
	l := p.lines[p.pos]
	p.pos++
	return l, true
}

func (p *parser) parseProtocol() (*Protocol, error) {
	l, ok := p.next()
	if !ok {
		return nil, p.errf(0, "empty input: expected 'protocol <name> {'")
	}
	name, ok := matchBlockHeader(l.text, "protocol")
	if !ok {
		return nil, p.errf(l.num, "expected 'protocol <name> {', got %q", l.text)
	}
	if !isIdent(name) {
		return nil, p.errf(l.num, "invalid protocol name %q", name)
	}
	proto := &Protocol{Name: name, Messages: make(map[string]*wire.Message)}

	for {
		l, ok := p.next()
		if !ok {
			return nil, p.errf(0, "unexpected end of input: protocol block not closed")
		}
		switch {
		case l.text == "}":
			if p.pos < len(p.lines) {
				return nil, p.errf(p.lines[p.pos].num, "unexpected content after protocol block")
			}
			return proto, nil
		case strings.HasPrefix(l.text, "message "):
			msgName, ok := matchBlockHeader(l.text, "message")
			if !ok {
				return nil, p.errf(l.num, "expected 'message <name> {'")
			}
			if _, dup := proto.Messages[msgName]; dup {
				return nil, p.errf(l.num, "duplicate message %q", msgName)
			}
			msg, err := p.parseMessage(msgName)
			if err != nil {
				return nil, err
			}
			proto.Messages[msgName] = msg
			proto.MessageOrder = append(proto.MessageOrder, msgName)
		case strings.HasPrefix(l.text, "machine "):
			mName, ok := matchBlockHeader(l.text, "machine")
			if !ok {
				return nil, p.errf(l.num, "expected 'machine <name> {'")
			}
			spec, err := p.parseMachine(mName, proto)
			if err != nil {
				return nil, err
			}
			proto.Machines = append(proto.Machines, spec)
		default:
			return nil, p.errf(l.num, "expected 'message', 'machine' or '}', got %q", l.text)
		}
	}
}

// matchBlockHeader matches "<kw> <name> {".
func matchBlockHeader(text, kw string) (string, bool) {
	if !strings.HasPrefix(text, kw+" ") || !strings.HasSuffix(text, "{") {
		return "", false
	}
	name := strings.TrimSpace(strings.TrimSuffix(strings.TrimPrefix(text, kw+" "), "{"))
	if name == "" || strings.ContainsAny(name, " \t") {
		return "", false
	}
	return name, true
}

func (p *parser) parseMessage(name string) (*wire.Message, error) {
	msg := &wire.Message{Name: name}
	for {
		l, ok := p.next()
		if !ok {
			return nil, p.errf(0, "message %s: block not closed", name)
		}
		if l.text == "}" {
			return msg, nil
		}
		field, err := p.parseField(l)
		if err != nil {
			return nil, err
		}
		msg.Fields = append(msg.Fields, *field)
	}
}

// parseField parses "name: type [= checksum algo | = expr]".
func (p *parser) parseField(l line) (*wire.Field, error) {
	colon := strings.Index(l.text, ":")
	if colon < 0 {
		return nil, p.errf(l.num, "expected 'field: type', got %q", l.text)
	}
	name := strings.TrimSpace(l.text[:colon])
	if !isIdent(name) {
		return nil, p.errf(l.num, "invalid field name %q", name)
	}
	rest := strings.TrimSpace(l.text[colon+1:])

	// Split off "= ..." computed part (but not inside brackets).
	typePart, computedPart := rest, ""
	if idx := indexTopLevel(rest, '='); idx >= 0 {
		typePart = strings.TrimSpace(rest[:idx])
		computedPart = strings.TrimSpace(rest[idx+1:])
	}

	f := &wire.Field{Name: name}
	switch {
	case strings.HasPrefix(typePart, "bytes"):
		f.Kind = wire.FieldBytes
		if err := p.parseBytesLen(l, f, typePart); err != nil {
			return nil, err
		}
	case strings.HasPrefix(typePart, "u"):
		bits, err := strconv.Atoi(typePart[1:])
		if err != nil || bits < 1 || bits > 64 {
			return nil, p.errf(l.num, "invalid uint type %q (want u1..u64)", typePart)
		}
		f.Kind = wire.FieldUint
		f.Bits = bits
	default:
		return nil, p.errf(l.num, "unknown field type %q", typePart)
	}

	if computedPart == "" {
		return f, nil
	}
	if f.Kind != wire.FieldUint {
		return nil, p.errf(l.num, "only uint fields can be computed")
	}
	if strings.HasPrefix(computedPart, "checksum ") || computedPart == "checksum" {
		algoName := strings.TrimSpace(strings.TrimPrefix(computedPart, "checksum"))
		algo, err := parseChecksumAlgo(algoName)
		if err != nil {
			return nil, p.errf(l.num, "%v", err)
		}
		f.Compute = &wire.Compute{Kind: wire.ComputeChecksum, Algo: algo}
		return f, nil
	}
	e, err := expr.Parse(computedPart)
	if err != nil {
		return nil, p.errf(l.num, "computed expression: %v", err)
	}
	f.Compute = &wire.Compute{Kind: wire.ComputeExpr, Expr: e}
	return f, nil
}

// parseBytesLen parses "bytes[<fixed int | field ident | * | expr>]" or
// plain "bytes" (= rest).
func (p *parser) parseBytesLen(l line, f *wire.Field, typePart string) error {
	spec := strings.TrimPrefix(typePart, "bytes")
	if spec == "" {
		f.LenKind = wire.LenRest
		return nil
	}
	if !strings.HasPrefix(spec, "[") || !strings.HasSuffix(spec, "]") {
		return p.errf(l.num, "malformed bytes length %q", typePart)
	}
	inner := strings.TrimSpace(spec[1 : len(spec)-1])
	switch {
	case inner == "*":
		f.LenKind = wire.LenRest
	case isInt(inner):
		n, err := strconv.Atoi(inner)
		if err != nil || n < 0 {
			return p.errf(l.num, "invalid fixed length %q", inner)
		}
		f.LenKind = wire.LenFixed
		f.LenBytes = n
	case isIdent(inner):
		f.LenKind = wire.LenField
		f.LenField = inner
	default:
		e, err := expr.Parse(inner)
		if err != nil {
			return p.errf(l.num, "length expression: %v", err)
		}
		f.LenKind = wire.LenExpr
		f.LenExpr = e
	}
	return nil
}

func parseChecksumAlgo(name string) (wire.ChecksumAlgo, error) {
	switch name {
	case "sum8":
		return wire.ChecksumSum8, nil
	case "inet16":
		return wire.ChecksumInet16, nil
	case "crc32":
		return wire.ChecksumCRC32, nil
	default:
		return 0, fmt.Errorf("unknown checksum algorithm %q (want sum8, inet16 or crc32)", name)
	}
}

func (p *parser) parseMachine(name string, proto *Protocol) (*fsm.Spec, error) {
	spec := &fsm.Spec{Name: name, Messages: proto.Messages}
	for {
		l, ok := p.next()
		if !ok {
			return nil, p.errf(0, "machine %s: block not closed", name)
		}
		switch {
		case l.text == "}":
			nameTransitions(spec)
			return spec, nil
		case strings.HasPrefix(l.text, "var "):
			v, err := p.parseVar(l, proto)
			if err != nil {
				return nil, err
			}
			spec.Vars = append(spec.Vars, *v)
		case strings.HasPrefix(l.text, "init state "),
			strings.HasPrefix(l.text, "final state "),
			strings.HasPrefix(l.text, "state "):
			st, err := p.parseState(l)
			if err != nil {
				return nil, err
			}
			spec.States = append(spec.States, *st)
		case strings.HasPrefix(l.text, "event "):
			ev, err := p.parseEvent(l, proto)
			if err != nil {
				return nil, err
			}
			spec.Events = append(spec.Events, *ev)
		case strings.HasPrefix(l.text, "on "):
			tr, err := p.parseTransition(l)
			if err != nil {
				return nil, err
			}
			spec.Transitions = append(spec.Transitions, *tr)
		case strings.HasPrefix(l.text, "ignore "):
			ig, err := p.parseIgnore(l)
			if err != nil {
				return nil, err
			}
			spec.Ignores = append(spec.Ignores, *ig)
		default:
			return nil, p.errf(l.num, "unexpected machine declaration %q", l.text)
		}
	}
}

// parseVar parses "var name: type [= literal]".
func (p *parser) parseVar(l line, proto *Protocol) (*fsm.Var, error) {
	body := strings.TrimPrefix(l.text, "var ")
	colon := strings.Index(body, ":")
	if colon < 0 {
		return nil, p.errf(l.num, "expected 'var name: type'")
	}
	name := strings.TrimSpace(body[:colon])
	if !isIdent(name) {
		return nil, p.errf(l.num, "invalid variable name %q", name)
	}
	rest := strings.TrimSpace(body[colon+1:])
	typeStr, initStr := rest, ""
	if idx := strings.Index(rest, "="); idx >= 0 {
		typeStr = strings.TrimSpace(rest[:idx])
		initStr = strings.TrimSpace(rest[idx+1:])
	}
	t, err := parseValueType(typeStr, proto)
	if err != nil {
		return nil, p.errf(l.num, "%v", err)
	}
	v := &fsm.Var{Name: name, Type: t}
	if initStr != "" {
		val, err := parseLiteral(initStr, t)
		if err != nil {
			return nil, p.errf(l.num, "%v", err)
		}
		v.Init = val
	}
	return v, nil
}

func (p *parser) parseState(l line) (*fsm.State, error) {
	st := &fsm.State{}
	text := l.text
	if strings.HasPrefix(text, "init state ") {
		st.Init = true
		text = strings.TrimPrefix(text, "init state ")
	} else if strings.HasPrefix(text, "final state ") {
		st.Final = true
		text = strings.TrimPrefix(text, "final state ")
	} else {
		text = strings.TrimPrefix(text, "state ")
	}
	name := strings.TrimSpace(text)
	if !isIdent(name) {
		return nil, p.errf(l.num, "invalid state name %q", name)
	}
	st.Name = name
	return st, nil
}

// parseEvent parses "event NAME" or "event NAME(p: type, ...)".
func (p *parser) parseEvent(l line, proto *Protocol) (*fsm.Event, error) {
	body := strings.TrimPrefix(l.text, "event ")
	name, params := body, ""
	if idx := strings.Index(body, "("); idx >= 0 {
		if !strings.HasSuffix(body, ")") {
			return nil, p.errf(l.num, "unbalanced parameter list")
		}
		name = strings.TrimSpace(body[:idx])
		params = body[idx+1 : len(body)-1]
	}
	if !isIdent(name) {
		return nil, p.errf(l.num, "invalid event name %q", name)
	}
	ev := &fsm.Event{Name: name}
	if strings.TrimSpace(params) != "" {
		for _, part := range splitTopLevel(params, ',') {
			colon := strings.Index(part, ":")
			if colon < 0 {
				return nil, p.errf(l.num, "expected 'param: type' in %q", part)
			}
			pname := strings.TrimSpace(part[:colon])
			if !isIdent(pname) {
				return nil, p.errf(l.num, "invalid parameter name %q", pname)
			}
			t, err := parseValueType(strings.TrimSpace(part[colon+1:]), proto)
			if err != nil {
				return nil, p.errf(l.num, "%v", err)
			}
			ev.Params = append(ev.Params, fsm.Param{Name: pname, Type: t})
		}
	}
	return ev, nil
}

// parseTransition parses
//
//	on EVENT from A to B [as NAME] [when EXPR] [{ <body> }]
func (p *parser) parseTransition(l line) (*fsm.Transition, error) {
	text := l.text
	hasBody := false
	if strings.HasSuffix(text, "{") {
		hasBody = true
		text = strings.TrimSpace(strings.TrimSuffix(text, "{"))
	}
	fields := strings.Fields(text)
	// on EVENT from A to B ...
	if len(fields) < 6 || fields[0] != "on" || fields[2] != "from" || fields[4] != "to" {
		return nil, p.errf(l.num, "expected 'on EVENT from STATE to STATE [as NAME] [when EXPR]', got %q", l.text)
	}
	tr := &fsm.Transition{Event: fields[1], From: fields[3], To: fields[5]}
	for _, n := range []string{tr.Event, tr.From, tr.To} {
		if !isIdent(n) {
			return nil, p.errf(l.num, "invalid name %q", n)
		}
	}
	rest := fields[6:]
	if len(rest) >= 1 && rest[0] == "as" {
		if len(rest) < 2 || !isIdent(rest[1]) {
			return nil, p.errf(l.num, "expected a transition name after 'as'")
		}
		tr.Name = rest[1]
		rest = rest[2:]
	}
	if len(rest) > 0 {
		if rest[0] != "when" {
			return nil, p.errf(l.num, "expected 'when' after target state, got %q", rest[0])
		}
		guardSrc := strings.TrimSpace(text[strings.Index(text, " when ")+len(" when "):])
		if guardSrc == "" {
			return nil, p.errf(l.num, "empty guard")
		}
		g, err := expr.Parse(guardSrc)
		if err != nil {
			return nil, p.errf(l.num, "guard: %v", err)
		}
		tr.Guard = g
	}
	if hasBody {
		if err := p.parseTransitionBody(tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// nameTransitions fills default names for unnamed transitions: the
// lower-cased event name, disambiguated with an ordinal when the same
// (state, event) pair has several transitions.
func nameTransitions(spec *fsm.Spec) {
	taken := make(map[string]bool)
	for _, t := range spec.Transitions {
		if t.Name != "" {
			taken[t.From+"."+t.Name] = true
		}
	}
	for i := range spec.Transitions {
		t := &spec.Transitions[i]
		if t.Name != "" {
			continue
		}
		base := strings.ToLower(t.Event)
		name := base
		for n := 2; taken[t.From+"."+name]; n++ {
			name = fmt.Sprintf("%s%d", base, n)
		}
		t.Name = name
		taken[t.From+"."+name] = true
	}
}

func (p *parser) parseTransitionBody(tr *fsm.Transition) error {
	for {
		l, ok := p.next()
		if !ok {
			return p.errf(0, "transition body not closed")
		}
		switch {
		case l.text == "}":
			return nil
		case strings.HasPrefix(l.text, "set "):
			body := strings.TrimPrefix(l.text, "set ")
			eq := strings.Index(body, "=")
			if eq < 0 {
				return p.errf(l.num, "expected 'set var = expr'")
			}
			name := strings.TrimSpace(body[:eq])
			if !isIdent(name) {
				return p.errf(l.num, "invalid variable %q", name)
			}
			e, err := expr.Parse(strings.TrimSpace(body[eq+1:]))
			if err != nil {
				return p.errf(l.num, "assignment: %v", err)
			}
			tr.Assigns = append(tr.Assigns, fsm.Assign{Var: name, Expr: e})
		case strings.HasPrefix(l.text, "send "):
			out, err := p.parseSend(l)
			if err != nil {
				return err
			}
			tr.Outputs = append(tr.Outputs, *out)
		default:
			return p.errf(l.num, "expected 'set', 'send' or '}', got %q", l.text)
		}
	}
}

// parseSend parses "send MSG(field: expr, ...)".
func (p *parser) parseSend(l line) (*fsm.Output, error) {
	body := strings.TrimPrefix(l.text, "send ")
	open := strings.Index(body, "(")
	if open < 0 || !strings.HasSuffix(body, ")") {
		return nil, p.errf(l.num, "expected 'send MSG(field: expr, ...)'")
	}
	msg := strings.TrimSpace(body[:open])
	if !isIdent(msg) {
		return nil, p.errf(l.num, "invalid message name %q", msg)
	}
	out := &fsm.Output{Message: msg, Fields: make(map[string]expr.Expr)}
	args := body[open+1 : len(body)-1]
	if strings.TrimSpace(args) == "" {
		return out, nil
	}
	for _, part := range splitTopLevel(args, ',') {
		colon := strings.Index(part, ":")
		if colon < 0 {
			return nil, p.errf(l.num, "expected 'field: expr' in %q", part)
		}
		fname := strings.TrimSpace(part[:colon])
		if !isIdent(fname) {
			return nil, p.errf(l.num, "invalid field name %q", fname)
		}
		if _, dup := out.Fields[fname]; dup {
			return nil, p.errf(l.num, "duplicate field %q", fname)
		}
		e, err := expr.Parse(strings.TrimSpace(part[colon+1:]))
		if err != nil {
			return nil, p.errf(l.num, "field %s: %v", fname, err)
		}
		out.Fields[fname] = e
	}
	return out, nil
}

// parseIgnore parses "ignore EVENT in STATE".
func (p *parser) parseIgnore(l line) (*fsm.Ignore, error) {
	fields := strings.Fields(l.text)
	if len(fields) != 4 || fields[0] != "ignore" || fields[2] != "in" {
		return nil, p.errf(l.num, "expected 'ignore EVENT in STATE'")
	}
	if !isIdent(fields[1]) || !isIdent(fields[3]) {
		return nil, p.errf(l.num, "invalid name in ignore")
	}
	return &fsm.Ignore{State: fields[3], Event: fields[1]}, nil
}

// parseValueType parses machine-level types: uN, bool, bytes, string or a
// message name.
func parseValueType(s string, proto *Protocol) (expr.Type, error) {
	switch s {
	case "bool":
		return expr.TBool, nil
	case "bytes":
		return expr.TBytes, nil
	case "string":
		return expr.TString, nil
	}
	if strings.HasPrefix(s, "u") {
		if bits, err := strconv.Atoi(s[1:]); err == nil {
			if bits < 1 || bits > 64 {
				return expr.Type{}, fmt.Errorf("invalid uint width %q", s)
			}
			return expr.TUint(bits), nil
		}
	}
	if isIdent(s) {
		if _, ok := proto.Messages[s]; ok {
			return expr.TMsg(s), nil
		}
		return expr.Type{}, fmt.Errorf("unknown type %q (messages must be declared before use)", s)
	}
	return expr.Type{}, fmt.Errorf("invalid type %q", s)
}

func parseLiteral(s string, t expr.Type) (expr.Value, error) {
	switch t.Kind {
	case expr.KindUint:
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return expr.Value{}, fmt.Errorf("invalid uint literal %q", s)
		}
		return expr.Uint(v, t.Bits), nil
	case expr.KindBool:
		switch s {
		case "true":
			return expr.Bool(true), nil
		case "false":
			return expr.Bool(false), nil
		}
		return expr.Value{}, fmt.Errorf("invalid bool literal %q", s)
	default:
		return expr.Value{}, fmt.Errorf("initialisers are only supported for uint and bool variables")
	}
}

// splitTopLevel splits on sep outside (), [] nesting.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// indexTopLevel finds ch outside bracket nesting, -1 if absent.
func indexTopLevel(s string, ch byte) int {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		default:
			if s[i] == ch && depth == 0 {
				return i
			}
		}
	}
	return -1
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if i == 0 && !alpha {
			return false
		}
		if !alpha && !(c >= '0' && c <= '9') {
			return false
		}
	}
	return true
}

func isInt(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
