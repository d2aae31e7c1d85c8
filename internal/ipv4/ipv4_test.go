package ipv4

import (
	"errors"
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
	for _, check := range []string{"version-is-4", "ihl-minimum", "total-length-covers-header"} {
		if !checked.Certificate().Establishes(check) {
			t.Errorf("certificate missing %q", check)
		}
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

func TestDecodeRejections(t *testing.T) {
	c, err := NewCodec()
	if err != nil {
		t.Fatal(err)
	}
	good := referencePacket(t)

	t.Run("short buffer", func(t *testing.T) {
		if _, _, err := c.Decode(good[:19]); !errors.Is(err, wire.ErrShortBuffer) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("corrupted checksum", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[12] ^= 0x01 // flip a source-address bit
		if _, _, err := c.Decode(bad); !errors.Is(err, wire.ErrChecksumMismatch) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 0x65 // version 6
		// Checksum must be fixed up so the semantic check is reached.
		bad[10], bad[11] = 0, 0
		fix := recompute(bad)
		bad[10], bad[11] = byte(fix>>8), byte(fix)
		if _, _, err := c.Decode(bad); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("bad ihl", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 0x44 // IHL 4
		if _, _, err := c.Decode(bad); !errors.Is(err, ErrBadIHL) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("total length too small", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[2], bad[3] = 0, 10
		bad[10], bad[11] = 0, 0
		fix := recompute(bad)
		bad[10], bad[11] = byte(fix>>8), byte(fix)
		if _, _, err := c.Decode(bad); !errors.Is(err, ErrBadTotalLength) {
			t.Errorf("err = %v", err)
		}
	})
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
