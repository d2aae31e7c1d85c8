// IPv4 header (the paper's Figure 1): the RFC 791 datagram header is
// defined once in the wire DSL, and that single definition parses real
// packet bytes, validates the Internet checksum and the semantic
// constraints, and regenerates the canonical ASCII picture.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"protodsl"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	codec, err := protodsl.NewIPv4Codec()
	if err != nil {
		return err
	}

	// Encode a header for a TCP segment 192.168.1.10 -> 93.184.216.34.
	h := protodsl.IPv4Header{
		Version: 4, IHL: 5, TOS: 0, TotalLength: 52,
		Identification: 0xbeef, Flags: 0x2, // don't fragment
		TTL: 64, Protocol: 6,
		Source:      [4]byte{192, 168, 1, 10},
		Destination: [4]byte{93, 184, 216, 34},
	}
	wireBytes, err := codec.Encode(h)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "encoded header (%d bytes): %x\n", len(wireBytes), wireBytes)
	fmt.Fprintf(w, "  checksum computed automatically: bytes 10..11 = %x\n\n", wireBytes[10:12])

	// Decode it back — with a payload appended, as it would arrive.
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	checked, rest, err := codec.Decode(append(wireBytes, payload...))
	if err != nil {
		return err
	}
	got := checked.Value()
	fmt.Fprintf(w, "decoded: v%d ihl=%d ttl=%d proto=%d len=%d\n",
		got.Version, got.IHL, got.TTL, got.Protocol, got.TotalLength)
	fmt.Fprintf(w, "  payload: % x (%d bytes)\n\n", rest, len(rest))

	// Corruption cannot get through: flip one bit anywhere.
	bad := append([]byte(nil), wireBytes...)
	bad[13] ^= 0x01 // a source-address bit
	if _, _, err := codec.Decode(bad); err != nil {
		fmt.Fprintf(w, "single bit flip rejected: %v\n\n", err)
	} else {
		return fmt.Errorf("corrupted header was accepted")
	}

	// And Figure 1, regenerated from the machine-checked definition.
	fmt.Fprintln(w, "Figure 1 (from the definition, not hand-drawn):")
	fmt.Fprintln(w)
	fmt.Fprint(w, protodsl.IPv4Diagram())
	return nil
}
