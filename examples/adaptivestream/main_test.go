package main

import (
	"bytes"
	"os"
	"testing"
)

// TestAdaptiveStreamGolden runs the three senders over the stepped
// capacity trace and compares its output with
// testdata/adaptivestream.golden. The simulation is deterministic, so a
// change to the rate controller, the stream model or a sender shows up
// as a diff.
func TestAdaptiveStreamGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/adaptivestream.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("adaptivestream output differs from testdata/adaptivestream.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
