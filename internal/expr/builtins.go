package expr

import (
	"fmt"

	"protodsl/internal/checksum"
)

// Builtin describes a builtin function of the language: its arity and
// typing discipline plus its evaluator. All builtins are total.
type Builtin struct {
	// CheckArgs validates argument types and returns the result type.
	CheckArgs func(args []Type) (Type, error)
	// Eval computes the result. Arguments are fully evaluated.
	Eval func(args []Value) (Value, error)
}

// builtins is the fixed registry of the language's functions.
var builtins = map[string]*Builtin{
	"len":    builtinLen,
	"u8":     castBuiltin("u8", 8),
	"u16":    castBuiltin("u16", 16),
	"u32":    castBuiltin("u32", 32),
	"u64":    castBuiltin("u64", 64),
	"min":    builtinMin,
	"max":    builtinMax,
	"sum8":   builtinSum8,
	"inet16": builtinInet16,
	"crc32":  builtinCRC32,
}

// LookupBuiltin returns the named builtin, if it exists.
func LookupBuiltin(name string) (*Builtin, bool) {
	b, ok := builtins[name]
	return b, ok
}

var builtinLen = &Builtin{
	CheckArgs: func(args []Type) (Type, error) {
		if len(args) != 1 {
			return Type{}, fmt.Errorf("len takes 1 argument, got %d", len(args))
		}
		if args[0].Kind != KindBytes && args[0].Kind != KindString {
			return Type{}, fmt.Errorf("len requires bytes or string, got %s", args[0])
		}
		return TU32, nil
	},
	Eval: func(args []Value) (Value, error) {
		switch args[0].Kind() {
		case KindBytes:
			return U32(uint64(len(args[0].RawBytes()))), nil
		case KindString:
			return U32(uint64(len(args[0].AsString()))), nil
		default:
			return Value{}, fmt.Errorf("len: bad operand kind %s", args[0].Kind())
		}
	},
}

func castBuiltin(name string, bits int) *Builtin {
	return &Builtin{
		CheckArgs: func(args []Type) (Type, error) {
			if len(args) != 1 {
				return Type{}, fmt.Errorf("%s takes 1 argument, got %d", name, len(args))
			}
			if args[0].Kind != KindUint {
				return Type{}, fmt.Errorf("%s requires uint, got %s", name, args[0])
			}
			return TUint(bits), nil
		},
		Eval: func(args []Value) (Value, error) {
			return Uint(args[0].AsUint(), bits), nil
		},
	}
}

func minMaxBuiltin(name string, pickMax bool) *Builtin {
	return &Builtin{
		CheckArgs: func(args []Type) (Type, error) {
			if len(args) != 2 {
				return Type{}, fmt.Errorf("%s takes 2 arguments, got %d", name, len(args))
			}
			for _, a := range args {
				if a.Kind != KindUint {
					return Type{}, fmt.Errorf("%s requires uints, got %s", name, a)
				}
			}
			bits := args[0].Bits
			if args[1].Bits > bits {
				bits = args[1].Bits
			}
			return TUint(bits), nil
		},
		Eval: func(args []Value) (Value, error) {
			a, b := args[0].AsUint(), args[1].AsUint()
			bits := args[0].Bits()
			if args[1].Bits() > bits {
				bits = args[1].Bits()
			}
			if (a > b) == pickMax {
				return Uint(a, bits), nil
			}
			return Uint(b, bits), nil
		},
	}
}

var (
	builtinMin = minMaxBuiltin("min", false)
	builtinMax = minMaxBuiltin("max", true)
)

// builtinSum8 is the paper's `check : Byte → List Byte → Byte` checksum:
// the additive-mod-256 sum over all argument bytes. Uint arguments
// contribute their big-endian bytes; bytes arguments contribute each byte.
var builtinSum8 = &Builtin{
	CheckArgs: func(args []Type) (Type, error) {
		if len(args) == 0 {
			return Type{}, fmt.Errorf("sum8 requires at least 1 argument")
		}
		for _, a := range args {
			if a.Kind != KindUint && a.Kind != KindBytes {
				return Type{}, fmt.Errorf("sum8 requires uint or bytes arguments, got %s", a)
			}
		}
		return TU8, nil
	},
	Eval: func(args []Value) (Value, error) {
		var sum uint64
		for _, a := range args {
			switch a.Kind() {
			case KindUint:
				v := a.AsUint()
				for shift := a.Bits() - 8; shift >= 0; shift -= 8 {
					sum += (v >> uint(shift)) & 0xFF
				}
			case KindBytes:
				sum += checksum.Sum8(a.RawBytes())
			default:
				return Value{}, fmt.Errorf("sum8: bad operand kind %s", a.Kind())
			}
		}
		return U8(sum), nil
	},
}

// Inet16 computes the 16-bit one's-complement Internet checksum (RFC 1071)
// over the given bytes. Exposed for reuse by the wire encoder; the
// implementation is the shared word-at-a-time one in internal/checksum.
func Inet16(data []byte) uint16 {
	return checksum.Inet16(data)
}

var builtinInet16 = &Builtin{
	CheckArgs: func(args []Type) (Type, error) {
		if len(args) != 1 || args[0].Kind != KindBytes {
			return Type{}, fmt.Errorf("inet16 takes 1 bytes argument")
		}
		return TU16, nil
	},
	Eval: func(args []Value) (Value, error) {
		return U16(uint64(Inet16(args[0].RawBytes()))), nil
	},
}

var builtinCRC32 = &Builtin{
	CheckArgs: func(args []Type) (Type, error) {
		if len(args) != 1 || args[0].Kind != KindBytes {
			return Type{}, fmt.Errorf("crc32 takes 1 bytes argument")
		}
		return TU32, nil
	},
	Eval: func(args []Value) (Value, error) {
		return U32(uint64(checksum.CRC32(args[0].RawBytes()))), nil
	},
}
