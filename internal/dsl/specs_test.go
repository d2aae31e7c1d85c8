package dsl

import (
	"testing"

	"protodsl/examples/specs"
)

// TestIPv4SourceCompiles covers the second canonical source end to end.
func TestIPv4SourceCompiles(t *testing.T) {
	proto, reports, err := Compile(specs.IPv4)
	if err != nil {
		t.Fatal(err)
	}
	if proto.Name != "ipv4" || len(proto.MessageOrder) != 1 {
		t.Errorf("proto = %+v", proto)
	}
	if len(reports) != 0 {
		t.Errorf("reports for a machine-less protocol: %d", len(reports))
	}
	m := proto.Messages["IPv4Header"]
	if m == nil || len(m.Fields) != 13 {
		t.Fatalf("fields = %d, want 13", len(m.Fields))
	}
	if m.Fields[0].Bits != 4 || m.Fields[6].Bits != 13 {
		t.Error("bit widths wrong (version u4, fragment_offset u13)")
	}
}
