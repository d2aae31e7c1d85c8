package expr

// This file implements the canonical byte encoding of values used by the
// model checker (DESIGN.md §12): a global machine state is serialised to
// one byte string, fingerprinted, and deduplicated by comparing those
// bytes. The encoding therefore has to be injective — two semantically
// distinct values must never encode to the same bytes — and faithful —
// decoding must reconstruct the value exactly, including the bit width
// of unsigned integers, because width changes how arithmetic wraps.
//
// Every variable-length component is length-prefixed with a uvarint, so
// concatenations cannot alias across component boundaries. Message
// fields are emitted in sorted name order with an up-front field count,
// so messages with the same present fields encode identically whatever
// slot order their shapes give them.
//
// DecodeCanon accepts exactly what AppendCanon emits and validates tags,
// widths and lengths, but it does not reject non-minimal uvarints or
// unsorted field order — canonical bytes are whatever AppendCanon
// produced, and the checker only ever stores those.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Canonical encoding tags, one per value kind.
const (
	canonInvalid = 0x00
	canonBool    = 0x01
	canonUint    = 0x02
	canonBytes   = 0x03
	canonString  = 0x04
	canonMsg     = 0x05
)

// canonMaxDepth bounds message nesting during decode so hostile input
// cannot recurse unboundedly. Protocol messages never nest this deep.
const canonMaxDepth = 32

// ErrCanon is wrapped by every DecodeCanon failure.
var ErrCanon = errors.New("expr: bad canonical encoding")

// AppendCanon appends the canonical byte encoding of the value to dst
// and returns the extended slice. The encoding is injective over the
// value domain of protocol specs and preserves uint bit widths.
func (v Value) AppendCanon(dst []byte) []byte {
	switch v.kind {
	case KindBool:
		return append(dst, canonBool, byte(v.u))
	case KindUint:
		dst = append(dst, canonUint, v.bits)
		return binary.AppendUvarint(dst, v.u)
	case KindBytes:
		dst = append(dst, canonBytes)
		dst = binary.AppendUvarint(dst, v.u)
		return append(dst, v.RawBytes()...)
	case KindString:
		dst = append(dst, canonString)
		dst = binary.AppendUvarint(dst, v.u)
		return append(dst, v.AsString()...)
	case KindMsg:
		name := v.MsgName()
		dst = append(dst, canonMsg)
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = binary.AppendUvarint(dst, uint64(v.numMsgFields()))
		for _, k := range v.msgFieldNames() {
			fv, ok := v.fieldByName(k)
			if !ok {
				continue
			}
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
			dst = fv.AppendCanon(dst)
		}
		return dst
	default:
		return append(dst, canonInvalid)
	}
}

// DecodeCanon decodes one value from the front of data, returning the
// value and the remaining bytes. A decoded message is built by Msg: its
// shape lists the decoded field names sorted.
func DecodeCanon(data []byte) (Value, []byte, error) {
	return decodeCanon(data, 0)
}

func decodeCanon(data []byte, depth int) (Value, []byte, error) {
	if depth > canonMaxDepth {
		return Value{}, nil, fmt.Errorf("%w: nesting deeper than %d", ErrCanon, canonMaxDepth)
	}
	if len(data) == 0 {
		return Value{}, nil, fmt.Errorf("%w: empty input", ErrCanon)
	}
	tag := data[0]
	data = data[1:]
	switch tag {
	case canonInvalid:
		return Value{}, data, nil
	case canonBool:
		if len(data) < 1 {
			return Value{}, nil, fmt.Errorf("%w: truncated bool", ErrCanon)
		}
		switch data[0] {
		case 0:
			return Bool(false), data[1:], nil
		case 1:
			return Bool(true), data[1:], nil
		default:
			return Value{}, nil, fmt.Errorf("%w: bool byte 0x%02x", ErrCanon, data[0])
		}
	case canonUint:
		if len(data) < 1 {
			return Value{}, nil, fmt.Errorf("%w: truncated uint width", ErrCanon)
		}
		bits := int(data[0])
		if bits != 8 && bits != 16 && bits != 32 && bits != 64 {
			return Value{}, nil, fmt.Errorf("%w: uint width %d", ErrCanon, bits)
		}
		u, n := binary.Uvarint(data[1:])
		if n <= 0 {
			return Value{}, nil, fmt.Errorf("%w: bad uint varint", ErrCanon)
		}
		if u != truncate(u, bits) {
			return Value{}, nil, fmt.Errorf("%w: uint %d exceeds width %d", ErrCanon, u, bits)
		}
		return Uint(u, bits), data[1+n:], nil
	case canonBytes:
		b, rest, err := canonTakeBytes(data)
		if err != nil {
			return Value{}, nil, err
		}
		return Bytes(b), rest, nil
	case canonString:
		b, rest, err := canonTakeBytes(data)
		if err != nil {
			return Value{}, nil, err
		}
		return Str(string(b)), rest, nil
	case canonMsg:
		nameB, rest, err := canonTakeBytes(data)
		if err != nil {
			return Value{}, nil, err
		}
		data = rest
		nFields, n := binary.Uvarint(data)
		if n <= 0 {
			return Value{}, nil, fmt.Errorf("%w: bad field count", ErrCanon)
		}
		data = data[n:]
		// Each field costs at least two bytes; cap the preallocation so a
		// hostile count cannot drive a huge map allocation.
		capHint := int(nFields)
		if capHint > len(data)/2 {
			capHint = len(data) / 2
		}
		fields := make(map[string]Value, capHint)
		for i := uint64(0); i < nFields; i++ {
			keyB, rest, err := canonTakeBytes(data)
			if err != nil {
				return Value{}, nil, err
			}
			fv, rest, err := decodeCanon(rest, depth+1)
			if err != nil {
				return Value{}, nil, err
			}
			fields[string(keyB)] = fv
			data = rest
		}
		if uint64(len(fields)) != nFields {
			return Value{}, nil, fmt.Errorf("%w: duplicate message field", ErrCanon)
		}
		return Msg(string(nameB), fields), data, nil
	default:
		return Value{}, nil, fmt.Errorf("%w: tag 0x%02x", ErrCanon, tag)
	}
}

// CanonLen returns the length of the one value encoding at the front of
// data without building the value: it walks the grammar DecodeCanon
// parses (tags, uvarint lengths, field counts, the nesting bound) and
// fails wherever that structure is broken. It checks structure only —
// DecodeCanon also rejects bad bool bytes, uint widths and out-of-width
// values — so a caller that needs the value must still decode it; the
// model checker uses CanonLen to key already-decoded messages by their
// bytes.
func CanonLen(data []byte) (int, error) {
	return canonLen(data, 0)
}

func canonLen(data []byte, depth int) (int, error) {
	if depth > canonMaxDepth {
		return 0, fmt.Errorf("%w: nesting deeper than %d", ErrCanon, canonMaxDepth)
	}
	if len(data) == 0 {
		return 0, fmt.Errorf("%w: empty input", ErrCanon)
	}
	switch data[0] {
	case canonInvalid:
		return 1, nil
	case canonBool:
		if len(data) < 2 {
			return 0, fmt.Errorf("%w: truncated bool", ErrCanon)
		}
		return 2, nil
	case canonUint:
		if len(data) < 2 {
			return 0, fmt.Errorf("%w: truncated uint width", ErrCanon)
		}
		_, n := binary.Uvarint(data[2:])
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad uint varint", ErrCanon)
		}
		return 2 + n, nil
	case canonBytes, canonString:
		_, rest, err := canonTakeBytes(data[1:])
		if err != nil {
			return 0, err
		}
		return len(data) - len(rest), nil
	case canonMsg:
		_, rest, err := canonTakeBytes(data[1:])
		if err != nil {
			return 0, err
		}
		nFields, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("%w: bad field count", ErrCanon)
		}
		rest = rest[n:]
		for i := uint64(0); i < nFields; i++ {
			if _, rest, err = canonTakeBytes(rest); err != nil {
				return 0, err
			}
			fl, err := canonLen(rest, depth+1)
			if err != nil {
				return 0, err
			}
			rest = rest[fl:]
		}
		return len(data) - len(rest), nil
	default:
		return 0, fmt.Errorf("%w: tag 0x%02x", ErrCanon, data[0])
	}
}

// canonTakeBytes reads a uvarint length prefix and that many bytes.
func canonTakeBytes(data []byte) ([]byte, []byte, error) {
	l, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: bad length varint", ErrCanon)
	}
	data = data[n:]
	if l > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%w: length %d exceeds %d remaining bytes", ErrCanon, l, len(data))
	}
	return data[:l], data[l:], nil
}
