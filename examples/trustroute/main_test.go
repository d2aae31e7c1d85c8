package main

import (
	"bytes"
	"os"
	"testing"
)

// TestTrustRouteGolden routes the seeded messages with both strategies
// and compares its output with testdata/trustroute.golden. The run is
// seeded, so a change to the trust learner or the relay model shows up
// as a diff in the rates or the trust table.
func TestTrustRouteGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/trustroute.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("trustroute output differs from testdata/trustroute.golden\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
