// Package ipv4 defines the RFC 791 IPv4 header in the wire DSL — the
// paper's Figure 1 — demonstrating that the machine-checked definition
// subsumes the traditional ASCII picture: the same single source of
// truth parses real packets, validates the header checksum, enforces the
// semantic constraints ASCII art cannot (version == 4, IHL >= 5,
// total length consistency), and *renders* the canonical diagram.
//
// Concurrency: the compiled layout behind the codec is immutable and
// shareable; a Codec carries reusable encode/decode scratch and is
// single-owner — one goroutine (or event loop) per Codec.
package ipv4

import (
	"errors"
	"fmt"

	"protodsl/examples/specs"
	"protodsl/internal/dsl"
	"protodsl/internal/expr"
	"protodsl/internal/wire"
)

// Semantic-constraint errors.
var (
	// ErrBadVersion is returned for headers whose version is not 4.
	ErrBadVersion = errors.New("version is not 4")
	// ErrBadIHL is returned for headers with IHL < 5.
	ErrBadIHL = errors.New("IHL below minimum of 5")
	// ErrBadTotalLength is returned when total_length is shorter than the
	// header it claims to prefix.
	ErrBadTotalLength = errors.New("total length shorter than header")
)

// ipv4Spec is the loader of ipv4.pdsl, whose IPv4Header message is the
// RFC 791 header layout, options included (their length is the Figure 1
// relation (ihl - 5) * 4).
var ipv4Spec = dsl.Load(specs.IPv4)

// headerLayout returns the shared compiled IPv4Header layout.
func headerLayout() (*wire.Layout, error) {
	proto, err := ipv4Spec()
	if err != nil {
		return nil, fmt.Errorf("ipv4: %w", err)
	}
	l, ok := proto.Layouts["IPv4Header"]
	if !ok {
		return nil, errors.New("ipv4: ipv4.pdsl has no IPv4Header message")
	}
	return l, nil
}

// Header is a decoded, semantically validated IPv4 header.
type Header struct {
	Version        uint8
	IHL            uint8
	TOS            uint8
	TotalLength    uint16
	Identification uint16
	Flags          uint8
	FragmentOffset uint16
	TTL            uint8
	Protocol       uint8
	Checksum       uint16
	Source         [4]byte
	Destination    [4]byte
	Options        []byte
}

// HeaderLen returns the header length in bytes (IHL * 4).
func (h Header) HeaderLen() int { return int(h.IHL) * 4 }

// CheckedHeader witnesses a header that passed wire validation
// (checksum, alignment) *and* the semantic constraints. Only the
// codec's decoders build one, so later stages that take a CheckedHeader
// can skip every check.
type CheckedHeader struct{ h Header }

// Value returns the validated header.
func (c CheckedHeader) Value() Header { return c.h }

// validate enforces the semantic constraints the wire layout cannot
// express, in order, reporting the first that fails.
func validate(h Header) error {
	if h.Version != 4 {
		return fmt.Errorf("%w: %d", ErrBadVersion, h.Version)
	}
	if h.IHL < 5 {
		return fmt.Errorf("%w: %d", ErrBadIHL, h.IHL)
	}
	if int(h.TotalLength) < h.HeaderLen() {
		return fmt.Errorf("%w: total=%d header=%d", ErrBadTotalLength, h.TotalLength, h.HeaderLen())
	}
	return nil
}

// Codec encodes and decodes IPv4 headers. Every method runs on the
// layout's slot-compiled program with reusable frame scratch (no map on
// the per-packet path), making the codec single-goroutine (use one per
// worker).
type Codec struct {
	prog *wire.Program

	encFrame, decFrame *expr.Frame
	slots              headerSlots
}

// headerSlots caches the canonical field slots of the header program.
type headerSlots struct {
	version, ihl, tos, totalLength, identification,
	flags, fragmentOffset, ttl, protocol, checksum,
	source, destination, options int
}

// NewCodec builds a codec over the shared header layout; only the
// scratch frames are per codec.
func NewCodec() (*Codec, error) {
	l, err := headerLayout()
	if err != nil {
		return nil, err
	}
	prog := l.Program()
	slot := func(name string) int {
		s, _ := prog.Slot(name)
		return s
	}
	return &Codec{
		prog:     prog,
		encFrame: prog.NewFrame(),
		decFrame: prog.NewFrame(),
		slots: headerSlots{
			version:        slot("version"),
			ihl:            slot("ihl"),
			tos:            slot("tos"),
			totalLength:    slot("total_length"),
			identification: slot("identification"),
			flags:          slot("flags"),
			fragmentOffset: slot("fragment_offset"),
			ttl:            slot("ttl"),
			protocol:       slot("protocol"),
			checksum:       slot("header_checksum"),
			source:         slot("source"),
			destination:    slot("destination"),
			options:        slot("options"),
		},
	}, nil
}

// Encode serialises the header into a new slice; the checksum is
// computed automatically. The supplied header's semantic constraints are
// enforced first, so invalid headers cannot be put on the wire.
func (c *Codec) Encode(h Header) ([]byte, error) {
	return c.AppendEncode(nil, h)
}

// AppendEncode serialises the header into the tail of dst, writing the
// codec's scratch frame slots (no map operation) and not copying
// options.
func (c *Codec) AppendEncode(dst []byte, h Header) ([]byte, error) {
	if err := validate(h); err != nil {
		return nil, err
	}
	if len(h.Options) != (int(h.IHL)-5)*4 {
		return nil, fmt.Errorf("ipv4: options length %d does not match IHL %d", len(h.Options), h.IHL)
	}
	f, s := c.encFrame, &c.slots
	f.Set(s.version, expr.U8(uint64(h.Version)))
	f.Set(s.ihl, expr.U8(uint64(h.IHL)))
	f.Set(s.tos, expr.U8(uint64(h.TOS)))
	f.Set(s.totalLength, expr.U16(uint64(h.TotalLength)))
	f.Set(s.identification, expr.U16(uint64(h.Identification)))
	f.Set(s.flags, expr.U8(uint64(h.Flags)))
	f.Set(s.fragmentOffset, expr.U16(uint64(h.FragmentOffset)))
	f.Set(s.ttl, expr.U8(uint64(h.TTL)))
	f.Set(s.protocol, expr.U8(uint64(h.Protocol)))
	f.Set(s.source, expr.U32(addrToUint(h.Source)))
	f.Set(s.destination, expr.U32(addrToUint(h.Destination)))
	f.Set(s.options, expr.BytesView(h.Options))
	return c.prog.AppendEncode(dst, f)
}

// Decode parses the first IHL*4 bytes of data as an IPv4 header and
// returns a validated witness. Trailing bytes beyond the header (the
// datagram payload) are permitted and returned.
func (c *Codec) Decode(data []byte) (CheckedHeader, []byte, error) {
	return c.decode(data, false)
}

// DecodeInPlace is the allocation-free counterpart of Decode: it decodes
// into the codec's reusable slot frame (no map operation), the returned
// header's Options alias data, and the checksum bytes of data are
// briefly zeroed and restored during verification
// (wire.Program.DecodeInto semantics).
func (c *Codec) DecodeInPlace(data []byte) (CheckedHeader, []byte, error) {
	return c.decode(data, true)
}

func (c *Codec) decode(data []byte, inPlace bool) (CheckedHeader, []byte, error) {
	if len(data) < 20 {
		return CheckedHeader{}, nil, fmt.Errorf("ipv4: %w: %d bytes", wire.ErrShortBuffer, len(data))
	}
	ihl := int(data[0] & 0x0F)
	hdrLen := ihl * 4
	if ihl < 5 {
		return CheckedHeader{}, nil, fmt.Errorf("ipv4: %w: %d", ErrBadIHL, ihl)
	}
	if len(data) < hdrLen {
		return CheckedHeader{}, nil, fmt.Errorf("ipv4: %w: header claims %d bytes, have %d",
			wire.ErrShortBuffer, hdrLen, len(data))
	}
	hdr := data[:hdrLen]
	if !inPlace {
		// Decode's contract leaves data untouched; the program's in-place
		// checksum verification briefly patches it, so work on a copy.
		hdr = append([]byte(nil), hdr...)
	}
	if err := c.prog.DecodeInto(c.decFrame, hdr); err != nil {
		return CheckedHeader{}, nil, err
	}
	f, s := c.decFrame, &c.slots
	h := Header{
		Version:        uint8(f.Get(s.version).AsUint()),
		IHL:            uint8(f.Get(s.ihl).AsUint()),
		TOS:            uint8(f.Get(s.tos).AsUint()),
		TotalLength:    uint16(f.Get(s.totalLength).AsUint()),
		Identification: uint16(f.Get(s.identification).AsUint()),
		Flags:          uint8(f.Get(s.flags).AsUint()),
		FragmentOffset: uint16(f.Get(s.fragmentOffset).AsUint()),
		TTL:            uint8(f.Get(s.ttl).AsUint()),
		Protocol:       uint8(f.Get(s.protocol).AsUint()),
		Checksum:       uint16(f.Get(s.checksum).AsUint()),
		Source:         uintToAddr(f.Get(s.source).AsUint()),
		Destination:    uintToAddr(f.Get(s.destination).AsUint()),
	}
	if inPlace {
		h.Options = f.Get(s.options).RawBytes()
	} else {
		h.Options = f.Get(s.options).AsBytes()
	}
	if err := validate(h); err != nil {
		return CheckedHeader{}, nil, err
	}
	return CheckedHeader{h}, data[hdrLen:], nil
}

// Diagram renders the Figure 1 ASCII picture from the definition. The
// embedded ipv4.pdsl is part of the binary and always compiles (the
// package tests load it), so a failure here is a build defect and panics.
func Diagram() string {
	l, err := headerLayout()
	if err != nil {
		panic(err)
	}
	return wire.Diagram(l.Message())
}

func addrToUint(a [4]byte) uint64 {
	return uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3])
}

func uintToAddr(v uint64) [4]byte {
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}
