package main

import (
	"bytes"
	"os"
	"testing"
)

// TestARQFileTransferGolden moves the file over the seeded impaired link
// and compares its output with testdata/arqfiletransfer.golden. The link
// and the timers run in virtual time from fixed seeds, so a change to
// the ARQ engines, the codec or the simulator shows up as a diff in the
// packet counts, the timings or the goodput.
func TestARQFileTransferGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/arqfiletransfer.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("arqfiletransfer output differs from testdata/arqfiletransfer.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
