// Command experiments prints every experiment table to stdout: one
// experiment per claim of the paper (the paper, a position paper, has no
// tables of its own — see DESIGN.md §4 for the mapping).
//
// Usage:
//
//	experiments            run all of E1..E12
//	experiments e3 e5      run a subset
//	experiments -repo DIR  repository root for source-reading experiments (E2)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

type experiment struct {
	id   string
	name string
	run  func(ctx *ctx, out io.Writer) error
}

type ctx struct {
	repoRoot string
	// full enables the expensive long-tail rows (E4's flagship model-
	// checking configuration) that are too slow for the test harness.
	full bool
}

func main() {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	repo := fs.String("repo", ".", "repository root (for source-analysis experiments)")
	full := fs.Bool("full", false, "include expensive rows (E4 flagship config; minutes on one vCPU)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if err := run(&ctx{repoRoot: *repo, full: *full}, fs.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(c *ctx, selected []string, out io.Writer) error {
	all := []experiment{
		{"e1", "Figure 1: IPv4 header from the wire DSL", runE1},
		{"e2", "§1 claim: error-handling share of hand-written protocol code", runE2},
		{"e3", "§3.3 claim: validate once, never re-validate", runE3},
		{"e4", "§3.3 claim: static checking vs model-checking cost", runE4},
		{"e5", "§3.4 guarantees: ARQ under loss/corruption/duplication", runE5},
		{"e6", "§1.1 hook: fuzzy media-rate adaptation", runE6},
		{"e7", "§1.1 hook: trust routing among untrusted relays", runE7},
		{"e8", "§1.1 hook: adaptive protocol timers", runE8},
		{"e9", "§2.3 claim: automatic behavioural test construction", runE9},
		{"e10", "§4.2 claim: exact checking vs DFA approximation", runE10},
		{"e11", "scale-out: multi-flow contention over a shared bottleneck", runE11},
		{"e12", "robustness: adaptive RTO vs fixed under bursty loss", runE12},
	}
	want := map[string]bool{}
	for _, s := range selected {
		want[strings.ToLower(s)] = true
	}
	ran := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Fprintf(out, "==== %s: %s ====\n\n", strings.ToUpper(e.id), e.name)
		if err := e.run(c, out); err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		fmt.Fprintln(out)
		ran++
	}
	if ran == 0 {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.id
		}
		sort.Strings(ids)
		return fmt.Errorf("no experiment matched %v (have %v)", selected, ids)
	}
	return nil
}
