package codegen

import (
	"fmt"
	"strconv"
	"strings"

	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// msgEmitter generates one message's struct, witness, and codec from the
// compiled wire program's IR: every offset, shift and mask below is
// resolved here, at generation time, so the emitted code is straight-line
// byte stores/loads with no bit cursor and no per-field dispatch.
type msgEmitter struct {
	g      *generator
	m      *wire.Message
	name   string // exported Go name
	ir     wire.ProgramIR
	fields []*wire.Field // struct fields (plain minus auto lengths)

	// autoSlot marks slots that are automatic length fields; payloadOf
	// maps them to their payload field's name.
	autoSlot  map[int]bool
	payloadOf map[int]string

	nLocals int // counter for n<k> byte-length locals on decode
}

// byteCursor is a byte offset built from a compile-time constant plus
// the lengths of preceding variable fields.
type byteCursor struct {
	c     int
	terms []string
}

// at renders the offset c+k followed by the variable terms ("4+n0").
func (cur byteCursor) at(k int) string {
	if cur.c+k == 0 && len(cur.terms) > 0 {
		return strings.Join(cur.terms, "+")
	}
	s := strconv.Itoa(cur.c + k)
	for _, t := range cur.terms {
		s += "+" + t
	}
	return s
}

// sub renders "len(data) - <offset>" with parens only when needed.
func (cur byteCursor) sub() string {
	if len(cur.terms) == 0 {
		return "len(data) - " + strconv.Itoa(cur.c)
	}
	return "len(data) - (" + cur.at(0) + ")"
}

// message emits the struct, witness type, and the four codec entry
// points (AppendEncodeX / EncodeX / DecodeXInto / DecodeX).
func (g *generator) message(m *wire.Message) error {
	e := &msgEmitter{
		g:         g,
		m:         m,
		name:      goName(m.Name),
		ir:        g.progs[m.Name].IR(),
		fields:    structFields(m),
		autoSlot:  make(map[int]bool),
		payloadOf: make(map[int]string),
	}
	for _, al := range e.ir.AutoLens {
		e.autoSlot[al.LenSlot] = true
		e.payloadOf[al.LenSlot] = e.ir.Ops[al.PayloadSlot].Name
	}
	e.structAndWitness()
	if err := e.appendEncode(); err != nil {
		return err
	}
	e.encodeWrapper()
	if err := e.decodeInto(); err != nil {
		return err
	}
	e.decodeWrapper()
	return nil
}

func (e *msgEmitter) field(name string) *wire.Field {
	f, _ := e.m.Field(name)
	return f
}

// msgScope returns a translator resolving bare identifiers as fields of
// this message on the Go value base (used for computed-field and length
// expressions on the encode path).
func (e *msgEmitter) msgScope(base string) *goTranslator {
	return &goTranslator{
		messages: e.g.proto.Messages,
		scope:    &fieldScope{msg: e.m, base: base},
	}
}

// decodeBindings returns a translator binding every field name to its
// decode local f<Name> (the value read off the wire, like the slot
// interpreter's frame).
func (e *msgEmitter) decodeBindings() *goTranslator {
	vars := make(map[string]varBinding)
	for i := range e.m.Fields {
		f := &e.m.Fields[i]
		vars[f.Name] = varBinding{code: "f" + goName(f.Name), typ: f.Type()}
	}
	return &goTranslator{messages: e.g.proto.Messages, vars: vars}
}

func (e *msgEmitter) structAndWitness() {
	g, name := e.g, e.name
	if e.m.Doc != "" {
		g.p("// %s: %s", name, e.m.Doc)
	} else {
		g.p("// %s is the message %q.", name, e.m.Name)
	}
	g.p("type %s struct {", name)
	for _, f := range e.fields {
		g.p("\t%s %s", goName(f.Name), goFieldType(f))
	}
	g.p("}")
	g.p("")

	g.p("// Checked%s witnesses a %s that passed every wire-level check on", name, name)
	g.p("// decode. The zero value is invalid; the only constructor is Decode%s.", name)
	g.p("type Checked%s struct {", name)
	g.p("\tvalue %s", name)
	g.p("\tok bool")
	g.p("}")
	g.p("")
	g.p("// Value returns the validated message.")
	g.p("func (c Checked%s) Value() %s { return c.value }", name, name)
	g.p("")
	g.p("// Valid reports whether the witness was issued by Decode%s.", name)
	g.p("func (c Checked%s) Valid() bool { return c.ok }", name)
	g.p("")
}

// encValueCode is the Go expression holding a uint op's value on the
// encode path (carrier-typed).
func (e *msgEmitter) encValueCode(op wire.OpIR) string {
	f := e.field(op.Name)
	switch {
	case e.autoSlot[op.Slot]:
		return "a" + goName(op.Name)
	case f.Compute != nil:
		return "c" + goName(op.Name)
	default:
		return "m." + goName(op.Name)
	}
}

// encContribution renders one field's contribution to an output byte:
// the value shifted right by rs (dropping bits that belong to later
// bytes) and left by ls (placing it inside this byte). Values are
// range-checked before the stores, and uint8 shifts discard overflow, so
// no masks are needed.
func encContribution(val string, carrierBits, rs, ls int) string {
	if carrierBits <= 8 {
		s := val
		if rs > 0 {
			s = val + ">>" + strconv.Itoa(rs)
		}
		if ls > 0 {
			if rs > 0 {
				s = "(" + s + ")"
			}
			s += "<<" + strconv.Itoa(ls)
		}
		return s
	}
	inner := val
	if rs > 0 {
		inner = val + ">>" + strconv.Itoa(rs)
	}
	s := "byte(" + inner + ")"
	if ls > 0 {
		s += "<<" + strconv.Itoa(ls)
	}
	return s
}

// decContribution renders one input byte's contribution to a field
// value: shift the byte right by rs, mask to maskBits when bits of an
// earlier field share the byte, widen to ctype (empty for uint8
// arithmetic), and shift left by ls into assembly position.
func decContribution(idx, ctype string, rs, maskBits, ls int) string {
	s := "data[" + idx + "]"
	switch {
	case rs > 0 && maskBits > 0:
		s = "(" + s + ">>" + strconv.Itoa(rs) + ")&" + hexMask(maskBits)
	case rs > 0:
		s += ">>" + strconv.Itoa(rs)
	case maskBits > 0:
		s += "&" + hexMask(maskBits)
	}
	if ctype != "" {
		s = ctype + "(" + s + ")"
	}
	if ls > 0 {
		if ctype == "" && (rs > 0 || maskBits > 0) {
			s = "(" + s + ")"
		}
		s += "<<" + strconv.Itoa(ls)
	}
	return s
}

func (e *msgEmitter) errReturn(ret, field, errName string) string {
	where := e.m.Name
	if field != "" {
		where += "." + field
	}
	if ret != "" {
		ret += ", "
	}
	return fmt.Sprintf("return %sfmt.Errorf(\"%s: %%w\", genrt.%s)", ret, where, errName)
}

// appendEncode emits AppendEncodeX: validate every field in op order,
// grow dst by the exact wire size in one zero-filled append, store
// fields with precomputed shifts, then compute and patch checksums.
func (e *msgEmitter) appendEncode() error {
	g, name, ir := e.g, e.name, e.ir

	g.p("// AppendEncode%s appends m's wire encoding to dst and returns the", name)
	g.p("// extended slice. Offsets, shifts and sizes are resolved at generation")
	g.p("// time from the compiled wire program; a successful call allocates")
	g.p("// nothing beyond growing dst. On error dst is returned unchanged.")
	g.p("func AppendEncode%s(dst []byte, m *%s) ([]byte, error) {", name, name)

	// Validation pass, in field order (mirrors the slot program's
	// first-failing-field behaviour).
	tr := e.msgScope("m")
	for _, op := range ir.Ops {
		f := e.field(op.Name)
		gn := goName(op.Name)
		switch {
		case op.IsChecksum:
			// Patched below; nothing to validate.
		case f.Compute != nil:
			// Computed values are truncated to the wire width, never refused.
		case op.Kind == wire.FieldUint && e.autoSlot[op.Slot]:
			// The payload length is an int, so the width check is needed
			// even when the field fills its carrier type exactly.
			if op.Bits < 64 {
				g.p("\tif uint64(len(m.%s)) >= 1<<%d {", goName(e.payloadOf[op.Slot]), op.Bits)
				g.p("\t\t%s", e.errReturn("dst", op.Name, "ErrFieldRange"))
				g.p("\t}")
			}
		case op.Kind == wire.FieldUint:
			if op.Bits != normBits(op.Bits) {
				g.p("\tif m.%s >= 1<<%d {", gn, op.Bits)
				g.p("\t\t%s", e.errReturn("dst", op.Name, "ErrFieldRange"))
				g.p("\t}")
			}
		case op.LenKind == wire.LenFixed:
			g.p("\tif len(m.%s) != %d {", gn, op.LenBytes)
			g.p("\t\t%s", e.errReturn("dst", op.Name, "ErrLengthMismatch"))
			g.p("\t}")
		case op.LenKind == wire.LenExpr:
			code, t, err := tr.translate(op.LenExpr)
			if err != nil {
				return fmt.Errorf("codegen: message %s field %s: %w", e.m.Name, op.Name, err)
			}
			g.p("\tif uint64(len(m.%s)) != %s {", gn, castTo(code, t, expr.TU64))
			g.p("\t\t%s", e.errReturn("dst", op.Name, "ErrLengthMismatch"))
			g.p("\t}")
		}
	}

	// Locals for synthesised values: automatic lengths, then computed
	// expressions (which may reference the lengths via the field scope).
	for _, al := range ir.AutoLens {
		op := ir.Ops[al.LenSlot]
		g.p("\ta%s := %s(len(m.%s))", goName(op.Name), goUintType(op.Bits), goName(e.payloadOf[op.Slot]))
	}
	for _, op := range ir.Ops {
		f := e.field(op.Name)
		if f.Compute == nil || f.Compute.Kind != wire.ComputeExpr {
			continue
		}
		code, t, err := tr.translate(f.Compute.Expr)
		if err != nil {
			return fmt.Errorf("codegen: message %s field %s: %w", e.m.Name, op.Name, err)
		}
		code = castTo(code, t, f.Type())
		if op.Bits != normBits(op.Bits) {
			code += " & " + hexMask(op.Bits)
		}
		g.p("\tc%s := %s", goName(op.Name), code)
	}

	// Extend dst by the exact wire size, zero-filled: in place with a
	// clear when its capacity allows, else by one append(dst, make(...)...)
	// grow, which the compiler lowers to a grow+memclr with no temporary.
	// Extending in place keeps the steady-state encode allocation-free
	// even under -race, whose instrumentation defeats that lowering.
	constBytes, uintBits := 0, 0
	var lenParts []string
	for _, op := range ir.Ops {
		switch {
		case op.Kind == wire.FieldUint:
			uintBits += op.Bits
		case op.LenKind == wire.LenFixed:
			constBytes += op.LenBytes
		default:
			lenParts = append(lenParts, "len(m."+goName(op.Name)+")")
		}
	}
	nExpr := strconv.Itoa(constBytes + uintBits/8)
	for _, p := range lenParts {
		nExpr += " + " + p
	}
	g.p("\tn := %s", nExpr)
	g.p("\tif cap(dst)-len(dst) >= n {")
	g.p("\t\tdst = dst[:len(dst)+n]")
	g.p("\t\tclear(dst[len(dst)-n:])")
	g.p("\t} else {")
	g.p("\t\tdst = append(dst, make([]byte, n)...)")
	g.p("\t}")
	g.p("\tb := dst[len(dst)-n:]")

	// Field stores. Checksum bytes are skipped (left zero) and patched
	// after the sums are taken over the zero-checksum image.
	var cur byteCursor
	i := 0
	for i < len(ir.Ops) {
		if ir.Ops[i].Kind == wire.FieldUint {
			j := i
			runBits := 0
			for j < len(ir.Ops) && ir.Ops[j].Kind == wire.FieldUint {
				runBits += ir.Ops[j].Bits
				j++
			}
			run := ir.Ops[i:j]
			for k := 0; k < runBits/8; k++ {
				var parts []string
				bit := 0
				for _, op := range run {
					lo, hi := maxInt(bit, 8*k), minInt(bit+op.Bits, 8*k+8)
					if lo < hi && !op.IsChecksum {
						rs := bit + op.Bits - hi
						ls := 8*(k+1) - hi
						parts = append(parts, encContribution(e.encValueCode(op), normBits(op.Bits), rs, ls))
					}
					bit += op.Bits
				}
				if len(parts) > 0 {
					g.p("\tb[%s] = %s", cur.at(k), strings.Join(parts, " | "))
				}
			}
			cur.c += runBits / 8
			i = j
			continue
		}
		op := ir.Ops[i]
		g.p("\tcopy(b[%s:], m.%s)", cur.at(0), goName(op.Name))
		if op.LenKind == wire.LenFixed {
			cur.c += op.LenBytes
		} else {
			cur.terms = append(cur.terms, "len(m."+goName(op.Name)+")")
		}
		i++
	}

	// Checksums: all sums over the zero-checksum image, then all patches
	// (so one checksum never covers another's patched value). When the
	// layout is fully fixed and small, the sum8 loop constant-folds to
	// the non-checksum bytes.
	if len(ir.Checksums) > 0 {
		fold := e.sum8FoldSize()
		for ci, cs := range ir.Checksums {
			if fold > 0 {
				var adds []string
				for k := 0; k < fold; k++ {
					if !e.inChecksumBytes(k) {
						adds = append(adds, fmt.Sprintf("uint64(b[%d])", k))
					}
				}
				sum := "0"
				if len(adds) > 0 {
					sum = "(" + strings.Join(adds, " + ") + ") & 0xff"
				}
				g.p("\tsum%d := %s // sum8 constant-folded: fixed %d-byte layout", ci, sum, fold)
			} else {
				g.p("\tsum%d := %s(b)", ci, checksumHelper(cs.Algo))
			}
		}
		for ci, cs := range ir.Checksums {
			for j := 0; j < cs.NBytes; j++ {
				shift := 8 * (cs.NBytes - 1 - j)
				if shift > 0 {
					g.p("\tb[%d] = byte(sum%d >> %d) // %s", cs.ByteOff+j, ci, shift, cs.Name)
				} else {
					g.p("\tb[%d] = byte(sum%d) // %s", cs.ByteOff+j, ci, cs.Name)
				}
			}
		}
	}
	g.p("\treturn dst, nil")
	g.p("}")
	g.p("")
	return nil
}

// sum8FoldSize returns the message's fixed wire size when every checksum
// is sum8 and the layout is fixed and small enough to unroll; 0 otherwise.
func (e *msgEmitter) sum8FoldSize() int {
	if e.ir.HasVariable || e.ir.FixedPrefixBytes > 8 {
		return 0
	}
	for _, cs := range e.ir.Checksums {
		if cs.Algo != wire.ChecksumSum8 {
			return 0
		}
	}
	return e.ir.FixedPrefixBytes
}

func (e *msgEmitter) inChecksumBytes(k int) bool {
	for _, cs := range e.ir.Checksums {
		if k >= cs.ByteOff && k < cs.ByteOff+cs.NBytes {
			return true
		}
	}
	return false
}

func (e *msgEmitter) allSum8() bool {
	for _, cs := range e.ir.Checksums {
		if cs.Algo != wire.ChecksumSum8 {
			return false
		}
	}
	return true
}

func (e *msgEmitter) encodeWrapper() {
	g, name := e.g, e.name
	g.p("// Encode%s serialises the message into a fresh buffer; computed fields", name)
	g.p("// (lengths, checksums) are filled in automatically.")
	g.p("func Encode%s(m %s) ([]byte, error) {", name, name)
	g.p("\treturn AppendEncode%s(nil, &m)", name)
	g.p("}")
	g.p("")
}

// decodeInto emits DecodeXInto: one bounds check per variable region,
// carrier-typed loads at generation-time offsets, then the slot
// program's verification ladder (trailing bytes, computed fields,
// checksums) before any store into m.
func (e *msgEmitter) decodeInto() error {
	g, name, ir := e.g, e.name, e.ir

	g.p("// Decode%sInto parses data into m, verifying lengths, computed fields", name)
	g.p("// and checksums — the compiled program's checks with every offset")
	g.p("// resolved at generation time. Bytes fields alias data; checksum")
	g.p("// verification may briefly zero and restore checksum bytes in place")
	g.p("// (as the slot interpreter does). On error m is left unmodified.")
	g.p("// A successful call performs no allocations.")
	g.p("func Decode%sInto(m *%s, data []byte) error {", name, name)

	if ir.FixedPrefixBytes > 0 {
		g.p("\tif len(data) < %d {", ir.FixedPrefixBytes)
		g.p("\t\t%s", e.errReturn("", "", "ErrShortBuffer"))
		g.p("\t}")
	}

	tr := e.decodeBindings()
	var cur byteCursor
	hasRest := false
	i := 0
	for i < len(ir.Ops) {
		if hasRest {
			return fmt.Errorf("codegen: message %s: field %s follows a rest-length field", e.m.Name, ir.Ops[i].Name)
		}
		if ir.Ops[i].Kind == wire.FieldUint {
			j := i
			runBits := 0
			for j < len(ir.Ops) && ir.Ops[j].Kind == wire.FieldUint {
				runBits += ir.Ops[j].Bits
				j++
			}
			run := ir.Ops[i:j]
			if len(cur.terms) > 0 {
				g.p("\tif %s < %d {", cur.sub(), runBits/8)
				g.p("\t\t%s", e.errReturn("", run[0].Name, "ErrShortBuffer"))
				g.p("\t}")
			}
			bit := 0
			for _, op := range run {
				ctype := ""
				if normBits(op.Bits) > 8 {
					ctype = goUintType(op.Bits)
				}
				var parts []string
				for k := bit / 8; k <= (bit+op.Bits-1)/8; k++ {
					lo, hi := maxInt(bit, 8*k), minInt(bit+op.Bits, 8*k+8)
					rs := 8*(k+1) - hi
					maskBits := 0
					if lo > 8*k {
						maskBits = hi - lo
					}
					ls := bit + op.Bits - hi
					parts = append(parts, decContribution(cur.at(k), ctype, rs, maskBits, ls))
				}
				g.p("\tf%s := %s", goName(op.Name), strings.Join(parts, " | "))
				bit += op.Bits
			}
			cur.c += runBits / 8
			i = j
			continue
		}

		op := ir.Ops[i]
		gn := goName(op.Name)
		switch op.LenKind {
		case wire.LenFixed:
			if len(cur.terms) > 0 || cur.c+op.LenBytes > ir.FixedPrefixBytes {
				g.p("\tif %s < %d {", cur.sub(), op.LenBytes)
				g.p("\t\t%s", e.errReturn("", op.Name, "ErrShortBuffer"))
				g.p("\t}")
			}
			g.p("\tf%s := data[%s : %s]", gn, cur.at(0), cur.at(op.LenBytes))
			cur.c += op.LenBytes
		case wire.LenField:
			lenLocal := "f" + goName(ir.Ops[op.LenSlot].Name)
			g.p("\tif uint64(%s) < uint64(%s) {", cur.sub(), lenLocal)
			g.p("\t\t%s", e.errReturn("", op.Name, "ErrShortBuffer"))
			g.p("\t}")
			nLoc := fmt.Sprintf("n%d", e.nLocals)
			e.nLocals++
			g.p("\t%s := int(%s)", nLoc, lenLocal)
			g.p("\tf%s := data[%s : %s+%s]", gn, cur.at(0), cur.at(0), nLoc)
			cur.terms = append(cur.terms, nLoc)
		case wire.LenExpr:
			code, t, err := tr.translate(op.LenExpr)
			if err != nil {
				return fmt.Errorf("codegen: message %s field %s: %w", e.m.Name, op.Name, err)
			}
			wLoc := fmt.Sprintf("w%d", e.nLocals)
			g.p("\t%s := %s", wLoc, castTo(code, t, expr.TU64))
			g.p("\tif %s > uint64(%s) {", wLoc, cur.sub())
			g.p("\t\t%s", e.errReturn("", op.Name, "ErrShortBuffer"))
			g.p("\t}")
			nLoc := fmt.Sprintf("n%d", e.nLocals)
			e.nLocals++
			g.p("\t%s := int(%s)", nLoc, wLoc)
			g.p("\tf%s := data[%s : %s+%s]", gn, cur.at(0), cur.at(0), nLoc)
			cur.terms = append(cur.terms, nLoc)
		case wire.LenRest:
			g.p("\tf%s := data[%s:]", gn, cur.at(0))
			hasRest = true
		}
		i++
	}

	if !hasRest {
		if len(cur.terms) == 0 {
			g.p("\tif len(data) != %d {", cur.c)
		} else {
			g.p("\tif %s != len(data) {", cur.at(0))
		}
		g.p("\t\t%s", e.errReturn("", "", "ErrTrailingBytes"))
		g.p("\t}")
	}

	// Computed-field verification (op order, before checksums — the slot
	// program's order).
	for _, op := range ir.Ops {
		f := e.field(op.Name)
		if f.Compute == nil || f.Compute.Kind != wire.ComputeExpr {
			continue
		}
		code, t, err := tr.translate(f.Compute.Expr)
		if err != nil {
			return fmt.Errorf("codegen: message %s field %s: %w", e.m.Name, op.Name, err)
		}
		code = castTo(code, t, f.Type())
		if op.Bits != normBits(op.Bits) {
			code = "(" + code + " & " + hexMask(op.Bits) + ")"
		}
		g.p("\tif %s != %s {", castTo("f"+goName(op.Name), f.Type(), expr.TU64), castTo(code, f.Type(), expr.TU64))
		g.p("\t\t%s", e.errReturn("", op.Name, "ErrFieldMismatch"))
		g.p("\t}")
	}

	// Checksum verification. sum8 is additive, so its expected value
	// folds to plain subtraction of the checksum bytes — no mutation.
	// Other algorithms use the interpreter's zero/compute/restore cycle.
	if len(ir.Checksums) > 0 {
		if e.allSum8() {
			fold := e.sum8FoldSize()
			for ci := range ir.Checksums {
				if fold > 0 {
					var adds []string
					for k := 0; k < fold; k++ {
						if !e.inChecksumBytes(k) {
							adds = append(adds, fmt.Sprintf("uint64(data[%d])", k))
						}
					}
					sum := "0"
					if len(adds) > 0 {
						sum = "(" + strings.Join(adds, " + ") + ") & 0xff"
					}
					g.p("\twant%d := %s", ci, sum)
				} else {
					sub := "genrt.Sum8(data)"
					for _, cs := range ir.Checksums {
						for j := 0; j < cs.NBytes; j++ {
							sub += fmt.Sprintf(" - uint64(data[%d])", cs.ByteOff+j)
						}
					}
					g.p("\twant%d := (%s) & 0xff", ci, sub)
				}
			}
		} else {
			for ci, cs := range ir.Checksums {
				for j := 0; j < cs.NBytes; j++ {
					g.p("\tsv%d_%d := data[%d]", ci, j, cs.ByteOff+j)
				}
			}
			for _, cs := range ir.Checksums {
				for j := 0; j < cs.NBytes; j++ {
					g.p("\tdata[%d] = 0", cs.ByteOff+j)
				}
			}
			for ci, cs := range ir.Checksums {
				g.p("\twant%d := %s(data)", ci, checksumHelper(cs.Algo))
			}
			for ci, cs := range ir.Checksums {
				for j := 0; j < cs.NBytes; j++ {
					g.p("\tdata[%d] = sv%d_%d", cs.ByteOff+j, ci, j)
				}
			}
		}
		for ci, cs := range ir.Checksums {
			f := e.field(cs.Name)
			g.p("\tif %s != want%d {", castTo("f"+goName(cs.Name), f.Type(), expr.TU64), ci)
			g.p("\t\t%s", e.errReturn("", cs.Name, "ErrChecksumMismatch"))
			g.p("\t}")
		}
	}

	for _, f := range e.fields {
		g.p("\tm.%s = f%s", goName(f.Name), goName(f.Name))
	}
	g.p("\treturn nil")
	g.p("}")
	g.p("")
	return nil
}

func (e *msgEmitter) decodeWrapper() {
	g, name := e.g, e.name
	g.p("// Decode%s parses and validates the message: lengths, computed", name)
	g.p("// fields and checksums are all verified, so the returned witness is")
	g.p("// evidence the data is well-formed (no processing of unverified")
	g.p("// packets). The witness owns its bytes — data is cloned, never")
	g.p("// aliased or mutated.")
	g.p("func Decode%s(data []byte) (Checked%s, error) {", name, name)
	g.p("\tbuf := append([]byte(nil), data...)")
	g.p("\tvar v %s", name)
	g.p("\tif err := Decode%sInto(&v, buf); err != nil {", name)
	g.p("\t\treturn Checked%s{}, err", name)
	g.p("\t}")
	g.p("\treturn Checked%s{ok: true, value: v}, nil", name)
	g.p("}")
	g.p("")
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
