package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes the full harness (the same code path
// as `go run ./cmd/experiments`, which prints the tables) and
// sanity-checks each table's presence. The repository root is two
// levels up from this package.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment harness in -short mode")
	}
	var out bytes.Buffer
	if err := run(&ctx{repoRoot: "../.."}, nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"E1: IPv4 header",
		"E2: error-handling",
		"E3: validate-once",
		"E4: static checking vs explicit-state model checking",
		"E5: stop-and-wait ARQ",
		"E6: media-stream adaptation",
		"E7: delivery through untrusted relays",
		"E8: timer policies",
		"E9: automatically constructed behavioural tests",
		"E10a: seeded spec defects",
		"E10b: path-insensitive DFA",
		"E12: adaptive vs fixed RTO",
		"FALSE POSITIVE", // the DFA approximation gap must be visible
	} {
		if !strings.Contains(s, want) {
			t.Errorf("harness output missing %q", want)
		}
	}
	if strings.Contains(s, "FALSE NEGATIVE") {
		t.Error("unexpected false negative in E10")
	}
}

func TestSubsetSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run(&ctx{repoRoot: "../.."}, []string{"e1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "E1") || strings.Contains(out.String(), "E5:") {
		t.Error("subset selection broken")
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run(&ctx{repoRoot: "../.."}, []string{"e99"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}
