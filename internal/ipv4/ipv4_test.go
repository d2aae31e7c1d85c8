package ipv4

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"protodsl/internal/wire"
)

// referencePacket is a canonical 20-byte IPv4 header (no options) for
// 192.168.1.1 -> 10.0.0.1, TTL 64, protocol 6 (TCP), total length 40,
// with a correct RFC 1071 header checksum.
func referencePacket(t testing.TB) []byte {
	t.Helper()
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	h := Header{
		Version: 4, IHL: 5, TOS: 0, TotalLength: 40,
		Identification: 0x1c46, Flags: 0x2, FragmentOffset: 0,
		TTL: 64, Protocol: 6,
		Source:      [4]byte{192, 168, 1, 1},
		Destination: [4]byte{10, 0, 0, 1},
	}
	enc, err := c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestEncodeKnownHeader(t *testing.T) {
	enc := referencePacket(t)
	if len(enc) != 20 {
		t.Fatalf("header length = %d, want 20", len(enc))
	}
	if enc[0] != 0x45 {
		t.Errorf("first byte = %#x, want 0x45 (version 4, IHL 5)", enc[0])
	}
	// Flags=0b010 (DF), offset 0 -> bytes 6..7 = 0x4000.
	if enc[6] != 0x40 || enc[7] != 0x00 {
		t.Errorf("flags/offset bytes = %#x %#x, want 0x40 0x00", enc[6], enc[7])
	}
	if enc[8] != 64 || enc[9] != 6 {
		t.Errorf("ttl/proto = %d %d", enc[8], enc[9])
	}
	// Verify the checksum is the RFC 1071 sum: recomputing over the
	// header with checksum zeroed must reproduce bytes 10..11.
	zeroed := append([]byte(nil), enc...)
	zeroed[10], zeroed[11] = 0, 0
	var sum uint32
	for i := 0; i < len(zeroed); i += 2 {
		sum += uint32(zeroed[i])<<8 | uint32(zeroed[i+1])
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	want := ^uint16(sum)
	got := uint16(enc[10])<<8 | uint16(enc[11])
	if got != want {
		t.Errorf("checksum = %#x, want %#x", got, want)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	enc := referencePacket(t)
	checked, rest, err := c.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	h := checked.Value()
	if h.Version != 4 || h.IHL != 5 || h.TTL != 64 || h.Protocol != 6 {
		t.Errorf("decoded %+v", h)
	}
	if h.Source != [4]byte{192, 168, 1, 1} || h.Destination != [4]byte{10, 0, 0, 1} {
		t.Errorf("addresses %v -> %v", h.Source, h.Destination)
	}
}

func TestDecodeWithPayloadAndOptions(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	h := Header{
		Version: 4, IHL: 6, TotalLength: 28,
		TTL: 1, Protocol: 17,
		Source:      [4]byte{127, 0, 0, 1},
		Destination: [4]byte{127, 0, 0, 2},
		Options:     []byte{0x94, 0x04, 0x00, 0x00}, // router alert
	}
	enc, err := c.Encode(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 24 {
		t.Fatalf("header with options = %d bytes, want 24", len(enc))
	}
	payload := []byte{0xDE, 0xAD}
	checked, rest, err := c.Decode(append(enc, payload...))
	if err != nil {
		t.Fatal(err)
	}
	if string(rest) != string(payload) {
		t.Error("payload not returned")
	}
	if got := checked.Value().Options; len(got) != 4 || got[0] != 0x94 {
		t.Errorf("options = %#x", got)
	}
}

// decodeCase is one input of the decode tests: want is nil for a header
// every decoder accepts, else the error class every decoder reports.
type decodeCase struct {
	name string
	data []byte
	want error
}

// rejectionCases derives one rejected input per check from a good header.
func rejectionCases(good []byte) []decodeCase {
	mutate := func(fixChecksum bool, mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		if fixChecksum { // so that the semantic check is reached
			b[10], b[11] = 0, 0
			fix := recompute(b)
			b[10], b[11] = byte(fix>>8), byte(fix)
		}
		return b
	}
	return []decodeCase{
		{"short buffer", append([]byte(nil), good[:19]...), wire.ErrShortBuffer},
		{"corrupted checksum", mutate(false, func(b []byte) { b[12] ^= 0x01 }), wire.ErrChecksumMismatch}, // a source-address bit
		{"wrong version", mutate(true, func(b []byte) { b[0] = 0x65 }), ErrBadVersion},                    // version 6
		{"bad ihl", mutate(false, func(b []byte) { b[0] = 0x44 }), ErrBadIHL},                             // IHL 4
		{"total length too small", mutate(true, func(b []byte) { b[2], b[3] = 0, 10 }), ErrBadTotalLength},
	}
}

func TestDecodeRejections(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range rejectionCases(referencePacket(t)) {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := c.Decode(tc.data); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestCodecContracts pins the two encoders and the two decoders against
// each other: Encode(h) is AppendEncode(nil, h) byte for byte, and
// DecodeInPlace accepts and rejects exactly what Decode does, with the
// same error class and the same header. Decode leaves its input
// untouched and copies the options out of it; DecodeInPlace restores
// its input and returns options that alias it.
func TestCodecContracts(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	headers := []Header{
		{
			Version: 4, IHL: 5, TotalLength: 40, Identification: 0x1c46, Flags: 0x2,
			TTL: 64, Protocol: 6,
			Source: [4]byte{192, 168, 1, 1}, Destination: [4]byte{10, 0, 0, 1},
		},
		{
			Version: 4, IHL: 6, TotalLength: 28, TTL: 1, Protocol: 17,
			Source: [4]byte{127, 0, 0, 1}, Destination: [4]byte{127, 0, 0, 2},
			Options: []byte{0x94, 0x04, 0x00, 0x00}, // router alert
		},
	}
	var cases []decodeCase
	for i, h := range headers {
		enc, err := c.Encode(h)
		if err != nil {
			t.Fatal(err)
		}
		app, err := c.AppendEncode(nil, h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, app) {
			t.Errorf("header %d: Encode = %x, AppendEncode(nil) = %x", i, enc, app)
		}
		cases = append(cases, decodeCase{fmt.Sprintf("header %d with payload", i), append(enc, 0xDE, 0xAD), nil})
	}
	cases = append(cases, rejectionCases(cases[0].data[:20])...)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			copied, inPlace := append([]byte(nil), tc.data...), append([]byte(nil), tc.data...)
			checked, rest, err := c.Decode(copied)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode err = %v, want %v", err, tc.want)
			}
			if !bytes.Equal(copied, tc.data) {
				t.Errorf("Decode changed its input: %x, was %x", copied, tc.data)
			}
			checkedInPlace, restInPlace, err := c.DecodeInPlace(inPlace)
			if !errors.Is(err, tc.want) {
				t.Errorf("DecodeInPlace err = %v, want %v", err, tc.want)
			}
			if !bytes.Equal(inPlace, tc.data) {
				t.Errorf("DecodeInPlace did not restore its input: %x, was %x", inPlace, tc.data)
			}
			if tc.want != nil {
				return
			}
			h, hInPlace := checked.Value(), checkedInPlace.Value()
			if !bytes.Equal(h.Options, hInPlace.Options) || !bytes.Equal(rest, restInPlace) {
				t.Errorf("options %x / %x, rest %x / %x", h.Options, hInPlace.Options, rest, restInPlace)
			}
			if n := len(h.Options); n > 0 {
				if aliases(h.Options, copied) {
					t.Error("Decode's options alias its input")
				}
				if !aliases(hInPlace.Options, inPlace) {
					t.Error("DecodeInPlace's options do not alias its input")
				}
			}
			h.Options, hInPlace.Options = nil, nil
			if !reflect.DeepEqual(h, hInPlace) {
				t.Errorf("Decode = %+v, DecodeInPlace = %+v", h, hInPlace)
			}
		})
	}
}

// aliases reports whether sub's first byte lies inside buf.
func aliases(sub, buf []byte) bool {
	for i := range buf {
		if &buf[i] == &sub[0] {
			return true
		}
	}
	return false
}

func recompute(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestEncodeRejectsInvalidHeaders(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	base := Header{Version: 4, IHL: 5, TotalLength: 20, TTL: 1, Protocol: 6}
	bad := base
	bad.Version = 5
	if _, err := c.Encode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version err = %v", err)
	}
	bad = base
	bad.IHL = 4
	if _, err := c.Encode(bad); !errors.Is(err, ErrBadIHL) {
		t.Errorf("ihl err = %v", err)
	}
	bad = base
	bad.TotalLength = 19
	if _, err := c.Encode(bad); !errors.Is(err, ErrBadTotalLength) {
		t.Errorf("total length err = %v", err)
	}
	bad = base
	bad.Version, bad.IHL = 6, 4 // the checks run in order: version first
	if _, err := c.Encode(bad); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version+ihl err = %v, want %v", err, ErrBadVersion)
	}
	bad = base
	bad.Options = []byte{1, 2, 3, 4} // IHL says none
	if _, err := c.Encode(bad); err == nil {
		t.Error("options/IHL mismatch accepted")
	}
}

// TestFigure1Diagram asserts the regenerated diagram carries the RFC 791
// header rows in Figure 1's 32-bit format.
func TestFigure1Diagram(t *testing.T) {
	d := Diagram()
	for _, want := range []string{
		"version", "ihl", "tos", "total_length",
		"identification", "flags", "fragment_offset",
		"ttl", "protocol", "header_checksum (inet16)",
		"source", "destination",
		" 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("diagram missing %q\n%s", want, d)
		}
	}
	// Exactly the five 32-bit rows of Figure 1 before the options row.
	rows := strings.Count(d, "\n|")
	if rows < 6 {
		t.Errorf("diagram has %d rows, want >= 6\n%s", rows, d)
	}
}

// Property: encode∘decode is the identity on valid headers.
func TestQuickRoundTrip(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	f := func(tos, ttl, proto uint8, id uint16, src, dst [4]byte) bool {
		h := Header{
			Version: 4, IHL: 5, TOS: tos, TotalLength: 20,
			Identification: id, TTL: ttl, Protocol: proto,
			Source: src, Destination: dst,
		}
		enc, err := c.Encode(h)
		if err != nil {
			return false
		}
		checked, rest, err := c.Decode(enc)
		if err != nil || len(rest) != 0 {
			return false
		}
		got := checked.Value()
		got.Checksum = 0 // encode input had no checksum
		got.Options = nil
		h.Options = nil
		return got.TOS == h.TOS && got.TTL == h.TTL && got.Protocol == h.Protocol &&
			got.Identification == h.Identification && got.Source == h.Source &&
			got.Destination == h.Destination
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
