package main

import (
	"bytes"
	"os"
	"testing"
)

// TestQuickstartGolden runs the tour and compares its output with
// testdata/quickstart.golden. Every step prints what it did, so an edit
// to the protocol, an event, an argument or the codec shows up as a diff.
func TestQuickstartGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quickstart.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("quickstart output differs from testdata/quickstart.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
