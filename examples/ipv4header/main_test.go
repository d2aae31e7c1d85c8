package main

import (
	"bytes"
	"os"
	"testing"
)

// TestIPv4HeaderGolden encodes, decodes and corrupts the header, draws
// Figure 1, and compares the output with testdata/ipv4header.golden. A
// change to the wire definition, the checksum or the diagram renderer
// shows up as a diff.
func TestIPv4HeaderGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ipv4header.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("ipv4header output differs from testdata/ipv4header.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
