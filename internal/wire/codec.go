package wire

import (
	"errors"
	"fmt"

	"protodsl/internal/checksum"
	"protodsl/internal/expr"
)

// Codec errors. Decode failures wrap these sentinel errors so callers can
// match the failure class with errors.Is.
var (
	// ErrChecksumMismatch is returned when a decoded checksum field does
	// not match the checksum recomputed over the received bytes.
	ErrChecksumMismatch = errors.New("checksum mismatch")
	// ErrFieldMismatch is returned when a decoded computed field (e.g. a
	// length) does not match its recomputed value.
	ErrFieldMismatch = errors.New("computed field mismatch")
	// ErrMissingField is returned by Encode when a required plain field
	// was not supplied.
	ErrMissingField = errors.New("missing field")
	// ErrBadFieldValue is returned by Encode when a supplied value has the
	// wrong kind or does not fit the field.
	ErrBadFieldValue = errors.New("bad field value")
	// ErrTrailingBytes is returned by Decode when input remains after the
	// final field.
	ErrTrailingBytes = errors.New("trailing bytes after message")
)

// CodecError decorates a codec failure with message/field context.
type CodecError struct {
	Message string
	Field   string
	Err     error
}

// Error implements error.
func (e *CodecError) Error() string {
	return fmt.Sprintf("message %s: field %s: %v", e.Message, e.Field, e.Err)
}

// Unwrap exposes the failure class for errors.Is.
func (e *CodecError) Unwrap() error { return e.Err }

func codecErr(msg, field string, err error) error {
	return &CodecError{Message: msg, Field: field, Err: err}
}

// lengthErr reports a payload too long for its bits-wide length field.
func lengthErr(n uint64, bits int) error {
	return fmt.Errorf("%w: length %d does not fit in a %d-bit length field", ErrBadFieldValue, n, bits)
}

// Encode serialises the message from the given field values.
//
// Encode/AppendEncode/Decode/DecodeInto are the map-based compatibility
// codec: convenient for tests, examples and one-shot callers, and the
// reference the slot programs are differentially tested against. The
// per-packet hot path is Layout.Program() (see program.go), which runs
// the same checks over slot frames without any map operation.
//
// Plain fields must all be present with values of the field's type.
// Computed fields (lengths, checksums) are filled in automatically; if a
// computed or auto-length field IS supplied, its value must agree with the
// computed one (so callers cannot construct self-inconsistent packets —
// the encode-side half of correctness by construction).
func (l *Layout) Encode(values map[string]expr.Value) ([]byte, error) {
	filled := make(map[string]expr.Value, len(l.msg.Fields))
	for k, v := range values {
		filled[k] = v
	}
	return l.AppendEncode(nil, filled)
}

// AppendEncode serialises the message into the tail of dst and returns
// the extended slice. It is the allocation-free encode path: reusing dst
// across calls amortises the output buffer, and — unlike Encode — the
// auto-computed fields (lengths, checksums) are written back into values
// rather than into a private copy, so callers should pass a map they own
// (a reusable scratch map, or a machine output's field map).
func (l *Layout) AppendEncode(dst []byte, values map[string]expr.Value) ([]byte, error) {
	m := l.msg
	filled := values

	// Auto-fill plain uint fields that serve as LenField lengths.
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Kind != FieldBytes || f.LenKind != LenField {
			continue
		}
		payload, ok := filled[f.Name]
		if !ok || payload.Kind() != expr.KindBytes {
			continue // reported as missing/bad below
		}
		lenField, _ := m.Field(f.LenField)
		n := uint64(len(payload.RawBytes()))
		if n>>lenField.Bits != 0 {
			return nil, codecErr(m.Name, f.Name, lengthErr(n, lenField.Bits))
		}
		autoLen := expr.Uint(n, lenField.Bits)
		if prev, ok := filled[f.LenField]; ok && lenField.Compute == nil {
			if prev.AsUint() != autoLen.AsUint() {
				return nil, codecErr(m.Name, f.LenField,
					fmt.Errorf("%w: supplied length %d != payload length %d",
						ErrBadFieldValue, prev.AsUint(), autoLen.AsUint()))
			}
		}
		if lenField.Compute == nil {
			filled[f.LenField] = autoLen
		}
	}

	// Evaluate expression-computed fields (over plain fields only).
	scope := expr.MapScope(filled)
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Compute == nil || f.Compute.Kind != ComputeExpr {
			continue
		}
		v, err := expr.Eval(f.Compute.Expr, scope)
		if err != nil {
			return nil, codecErr(m.Name, f.Name, err)
		}
		v = v.WithBits(f.Bits)
		if prev, ok := filled[f.Name]; ok && prev.AsUint() != v.AsUint() {
			return nil, codecErr(m.Name, f.Name,
				fmt.Errorf("%w: supplied %d != computed %d", ErrBadFieldValue, prev.AsUint(), v.AsUint()))
		}
		filled[f.Name] = v
	}

	// First pass: serialise with checksum fields zeroed.
	w := &bitWriter{buf: dst, base: len(dst)}
	for i := range m.Fields {
		f := &m.Fields[i]
		if err := encodeField(m, f, filled, w); err != nil {
			return nil, err
		}
	}
	if !w.aligned() {
		return nil, codecErr(m.Name, "", fmt.Errorf("encoded size is not byte-aligned"))
	}

	// Second pass: compute every checksum over the still-zeroed
	// serialisation, then patch — decode zeroes all checksum fields at
	// once before verifying, so patching one checksum before computing
	// the next would break multi-checksum round-trips.
	var sumsBuf [4]uint64
	sums := sumsBuf[:0]
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Compute == nil || f.Compute.Kind != ComputeChecksum {
			continue
		}
		sums = append(sums, checksumOf(f.Compute.Algo, w.buf[w.base:]))
	}
	idx := 0
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Compute == nil || f.Compute.Kind != ComputeChecksum {
			continue
		}
		off, _ := l.FieldOffset(f.Name)
		patchUint(w.buf, w.base+off/8, f.Bits/8, sums[idx])
		idx++
	}
	return w.buf, nil
}

func encodeField(m *Message, f *Field, filled map[string]expr.Value, w *bitWriter) error {
	if f.Compute != nil && f.Compute.Kind == ComputeChecksum {
		w.writeBits(0, f.Bits) // patched later
		return nil
	}
	v, ok := filled[f.Name]
	if !ok {
		return codecErr(m.Name, f.Name, ErrMissingField)
	}
	switch f.Kind {
	case FieldUint:
		if v.Kind() != expr.KindUint {
			return codecErr(m.Name, f.Name, fmt.Errorf("%w: expected uint, got %s", ErrBadFieldValue, v.Kind()))
		}
		if f.Bits < 64 && v.AsUint() >= 1<<uint(f.Bits) {
			return codecErr(m.Name, f.Name,
				fmt.Errorf("%w: value %d does not fit in %d bits", ErrBadFieldValue, v.AsUint(), f.Bits))
		}
		w.writeBits(v.AsUint(), f.Bits)
		return nil
	case FieldBytes:
		if v.Kind() != expr.KindBytes {
			return codecErr(m.Name, f.Name, fmt.Errorf("%w: expected bytes, got %s", ErrBadFieldValue, v.Kind()))
		}
		b := v.RawBytes()
		switch f.LenKind {
		case LenFixed:
			if len(b) != f.LenBytes {
				return codecErr(m.Name, f.Name,
					fmt.Errorf("%w: fixed-length field needs %d bytes, got %d", ErrBadFieldValue, f.LenBytes, len(b)))
			}
		case LenExpr:
			want, err := expr.Eval(f.LenExpr, expr.MapScope(filled))
			if err != nil {
				return codecErr(m.Name, f.Name, err)
			}
			if uint64(len(b)) != want.AsUint() {
				return codecErr(m.Name, f.Name,
					fmt.Errorf("%w: length expression gives %d, payload is %d bytes", ErrBadFieldValue, want.AsUint(), len(b)))
			}
		}
		return w.writeBytes(b)
	default:
		return codecErr(m.Name, f.Name, fmt.Errorf("invalid field kind"))
	}
}

// Decode parses and validates the message from data.
//
// Every computed field is recomputed and compared against the received
// value; a successful Decode therefore *is* the validation step that makes
// the result a checked packet in the sense of §3.3. A transferable
// witness is a type that only a validating decoder can build, as
// arq.CheckedPacket and ipv4.CheckedHeader are.
//
// The returned byte-field values are copies, independent of data.
func (l *Layout) Decode(data []byte) (map[string]expr.Value, error) {
	values := make(map[string]expr.Value, len(l.msg.Fields))
	if err := l.decode(values, data, false); err != nil {
		return nil, err
	}
	return values, nil
}

// DecodeInto parses and validates the message into a caller-owned value
// map, performing the same checks as Decode without its allocations: the
// map is cleared and reused, and byte-field values alias data rather than
// copying it. During checksum verification the checksum bytes of data are
// briefly zeroed in place and restored before returning, so data must not
// be read concurrently. Callers that need values outliving data (or an
// untouched input buffer) should use Decode.
func (l *Layout) DecodeInto(values map[string]expr.Value, data []byte) error {
	clear(values)
	return l.decode(values, data, true)
}

// decode is the shared Decode/DecodeInto implementation. When inPlace is
// true byte fields alias data and checksums are verified by zero-patching
// data temporarily; otherwise byte fields and the checksum scratch are
// copies.
func (l *Layout) decode(values map[string]expr.Value, data []byte, inPlace bool) error {
	m := l.msg
	r := &bitReader{buf: data}

	for i := range m.Fields {
		f := &m.Fields[i]
		switch f.Kind {
		case FieldUint:
			v, err := r.readBits(f.Bits)
			if err != nil {
				return codecErr(m.Name, f.Name, err)
			}
			values[f.Name] = expr.Uint(v, f.Bits)
		case FieldBytes:
			n, err := byteLength(m, f, values, r)
			if err != nil {
				return err
			}
			if inPlace {
				b, err := r.readBytesView(n)
				if err != nil {
					return codecErr(m.Name, f.Name, err)
				}
				values[f.Name] = expr.BytesView(b)
			} else {
				b, err := r.readBytes(n)
				if err != nil {
					return codecErr(m.Name, f.Name, err)
				}
				values[f.Name] = expr.BytesView(b) // already a private copy
			}
		}
	}
	if !r.done() {
		return codecErr(m.Name, "", fmt.Errorf("%w: %d bytes", ErrTrailingBytes, r.remainingBytes()))
	}

	// Verify expression-computed fields.
	scope := expr.MapScope(values)
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Compute == nil || f.Compute.Kind != ComputeExpr {
			continue
		}
		want, err := expr.Eval(f.Compute.Expr, scope)
		if err != nil {
			return codecErr(m.Name, f.Name, err)
		}
		if got := values[f.Name]; got.AsUint() != want.WithBits(f.Bits).AsUint() {
			return codecErr(m.Name, f.Name,
				fmt.Errorf("%w: received %d, computed %d", ErrFieldMismatch, got.AsUint(), want.AsUint()))
		}
	}

	// Verify checksum fields: recompute over the wire bytes with all
	// checksum fields zeroed.
	return l.verifyChecksums(data, values, inPlace)
}

// verifyChecksums recomputes every checksum field over the wire bytes
// with all checksum fields zeroed. When inPlace is true the zeroing is
// patched directly into data and restored afterwards (no allocation);
// otherwise it happens on a private copy.
func (l *Layout) verifyChecksums(data []byte, values map[string]expr.Value, inPlace bool) error {
	m := l.msg
	var zeroed []byte
	restore := false
	defer func() {
		if !restore {
			return
		}
		// Restore the received checksum bytes patched out of data.
		for i := range m.Fields {
			f := &m.Fields[i]
			if f.Compute != nil && f.Compute.Kind == ComputeChecksum {
				off, _ := l.FieldOffset(f.Name)
				patchUint(data, off/8, f.Bits/8, values[f.Name].AsUint())
			}
		}
	}()
	for i := range m.Fields {
		f := &m.Fields[i]
		if f.Compute == nil || f.Compute.Kind != ComputeChecksum {
			continue
		}
		if zeroed == nil {
			if inPlace {
				zeroed = data
				restore = true
			} else {
				zeroed = make([]byte, len(data))
				copy(zeroed, data)
			}
			for j := range m.Fields {
				g := &m.Fields[j]
				if g.Compute != nil && g.Compute.Kind == ComputeChecksum {
					off, _ := l.FieldOffset(g.Name)
					for k := 0; k < g.Bits/8; k++ {
						zeroed[off/8+k] = 0
					}
				}
			}
		}
		want := checksumOf(f.Compute.Algo, zeroed)
		if got := values[f.Name].AsUint(); got != want {
			return codecErr(m.Name, f.Name,
				fmt.Errorf("%w: received %#x, computed %#x", ErrChecksumMismatch, got, want))
		}
	}
	return nil
}

func byteLength(m *Message, f *Field, values map[string]expr.Value, r *bitReader) (int, error) {
	switch f.LenKind {
	case LenFixed:
		return f.LenBytes, nil
	case LenField:
		v, ok := values[f.LenField]
		if !ok {
			return 0, codecErr(m.Name, f.Name, fmt.Errorf("length field %q not yet decoded", f.LenField))
		}
		return int(v.AsUint()), nil
	case LenExpr:
		v, err := expr.Eval(f.LenExpr, expr.MapScope(values))
		if err != nil {
			return 0, codecErr(m.Name, f.Name, err)
		}
		return int(v.AsUint()), nil
	case LenRest:
		return r.remainingBytes(), nil
	default:
		return 0, codecErr(m.Name, f.Name, fmt.Errorf("invalid length discipline"))
	}
}

func checksumOf(algo ChecksumAlgo, data []byte) uint64 {
	switch algo {
	case ChecksumSum8:
		return checksum.Sum8(data)
	case ChecksumInet16:
		return uint64(checksum.Inet16(data))
	case ChecksumCRC32:
		return uint64(checksum.CRC32(data))
	default:
		return 0
	}
}

func patchUint(buf []byte, byteOff, nBytes int, v uint64) {
	for i := 0; i < nBytes; i++ {
		shift := uint(8 * (nBytes - 1 - i))
		buf[byteOff+i] = byte(v >> shift)
	}
}
