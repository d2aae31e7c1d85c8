package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

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
		"E3: validate-once witness vs re-validation (IPv4 header", // the checks a witness skips must exist
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

// TestE2Golden: E2 is line counts of committed sources, so its output is
// exact. A change that grows or shrinks the shipped glue shows up here;
// after an intended one, rerun with -update and review the diff.
func TestE2Golden(t *testing.T) {
	var out bytes.Buffer
	if err := runE2(&ctx{repoRoot: "../.."}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "e2.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("E2 output differs from %s (rerun with -update after an intended change):\n%s", path, out.String())
	}
}
