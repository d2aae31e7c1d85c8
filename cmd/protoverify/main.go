// Command protoverify is the repo's model-checking gate (`make verify`):
// it exhaustively explores every machine spec in examples/specs/ as a
// closed system under all environment stimuli, plus the built-in
// stop-and-wait, Go-Back-N and selective-repeat models over lossy and
// reordering channels, and fails unless each target matches its expected
// verdict. Clean targets must stay clean; seeded-bug and known-unsafe
// configurations must keep violating — a gate that cannot see the seeded
// bug anymore has lost its teeth, so that direction fails too.
//
//	go run ./cmd/protoverify                 # fast gate (CI default)
//	go run ./cmd/protoverify -full           # adds the large GBN flagship config
//	go run ./cmd/protoverify -specs DIR      # override the spec directory
//
// Exit status 0 when every target matches its expected verdict, 1
// otherwise. See DESIGN.md §12 for the search design.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"protodsl/internal/dsl"
	"protodsl/internal/fsm"
	"protodsl/internal/testgen"
	"protodsl/internal/verify"
)

// target is one gate entry: a closed system, its exploration options and
// the verdict it must produce.
type target struct {
	name string
	sys  *verify.System
	opts verify.Options
	// wantViolations: the target models a seeded bug or a known-unsafe
	// configuration and MUST report at least one violation.
	wantViolations bool
	// note explains expected violations in the table output.
	note string
}

// specTargets loads every .pdsl file in dir and closes each machine spec
// over its full stimulus domain: every declared event, with the argument
// candidates testgen enumerates for suite generation. Exhaustive
// exploration then proves every reachable state under arbitrary stimulus
// has well-defined behaviour and a path onward (no deadlock) — the
// model-checking counterpart of the static fsm.Check pass.
func specTargets(dir string) ([]target, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.pdsl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .pdsl files in %s", dir)
	}
	sort.Strings(files)
	var targets []target
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		proto, reports, err := dsl.Compile(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(file), err)
		}
		for _, rep := range reports {
			if !rep.OK() {
				return nil, fmt.Errorf("%s: machine %s: %v", filepath.Base(file), rep.Spec, rep.Errors())
			}
		}
		for _, spec := range proto.Machines {
			env, err := envStimuli(spec)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", filepath.Base(file), spec.Name, err)
			}
			targets = append(targets, target{
				name: fmt.Sprintf("spec:%s/%s", filepath.Base(file), spec.Name),
				sys:  &verify.System{Specs: []*fsm.Spec{spec}, Env: env},
				opts: verify.Options{CheckDeadlock: true},
			})
		}
	}
	return targets, nil
}

// envStimuli builds one environment event per declared event, with the
// same argument candidates testgen uses to generate suites.
func envStimuli(spec *fsm.Spec) ([]verify.EnvEvent, error) {
	env := make([]verify.EnvEvent, 0, len(spec.Events))
	for i := range spec.Events {
		args, err := testgen.EnvArgs(spec, &spec.Events[i])
		if err != nil {
			return nil, err
		}
		env = append(env, verify.EnvEvent{Machine: 0, Event: spec.Events[i].Name, Args: args})
	}
	return env, nil
}

// modelTargets is the built-in grid: the stop-and-wait two-machine system
// (E4 axes plus the seeded broken-ack-guard bug), Go-Back-N and
// selective repeat over lossy and reordering channels. Safe/unsafe
// expectations follow the window theorems the checker itself established:
// GBN needs n >= W+1 (and T < n under reordering), SR needs n >= 2W on
// FIFO channels — checked at both W=2 and W=3 — and is unsafe under
// arbitrary reordering for any bounded sequence space (the
// stale-duplicate aliasing that motivates bounded packet lifetimes in
// real transports).
func modelTargets(full bool) ([]target, error) {
	var targets []target
	// No CheckDeadlock for the built-in models: their receivers declare no
	// final state (the model convention — receivers serve forever), so a
	// completed run always reports "not all machines final". Deadlock
	// checking is exercised on the spec-file systems and by the verify
	// package's own tests instead.
	arq := func(o verify.ARQOptions, broken bool) error {
		sys, err := verify.BuildARQ(o)
		if err != nil {
			return err
		}
		t := target{
			name: fmt.Sprintf("arq:n=%d c=%d lossy=%v", o.SeqSpace, o.Capacity, o.Lossy),
			sys:  sys,
			opts: verify.Options{
				Invariants: []verify.Invariant{verify.StopAndWaitInvariant(o.SeqSpace)},
			},
		}
		if broken {
			t.name = fmt.Sprintf("arq:n=%d c=%d broken-ack-guard", o.SeqSpace, o.Capacity)
			t.wantViolations = true
			t.note = "seeded bug"
		}
		targets = append(targets, t)
		return nil
	}
	gbn := func(o verify.GBNOptions, wantViol bool, note string) error {
		sys, err := verify.BuildGBN(o)
		if err != nil {
			return err
		}
		targets = append(targets, target{
			name: fmt.Sprintf("gbn:n=%d w=%d t=%d c=%d lossy=%v reorder=%v",
				o.SeqSpace, o.Window, o.Total, o.Capacity, o.Lossy, o.Reorder),
			sys:            sys,
			opts:           verify.Options{Invariants: []verify.Invariant{verify.GBNInvariant(o.SeqSpace)}},
			wantViolations: wantViol,
			note:           note,
		})
		return nil
	}
	sr := func(o verify.SROptions, wantViol bool, note string) error {
		sys, err := verify.BuildSR(o)
		if err != nil {
			return err
		}
		w := o.Window
		if w == 0 {
			w = 2
		}
		targets = append(targets, target{
			name: fmt.Sprintf("sr:n=%d w=%d t=%d c=%d lossy=%v reorder=%v",
				o.SeqSpace, w, o.Total, o.Capacity, o.Lossy, o.Reorder),
			sys:            sys,
			opts:           verify.Options{Invariants: []verify.Invariant{verify.SRInvariantW(o.SeqSpace, w)}},
			wantViolations: wantViol,
			note:           note,
		})
		return nil
	}
	hs := func(o verify.HSOptions, wantViol bool, note string) error {
		sys, err := verify.BuildHandshake(o)
		if err != nil {
			return err
		}
		mut := ""
		switch o.Mutant {
		case verify.MutantHalfOpenLeak:
			mut = " halfopen-leak"
		case verify.MutantAcceptAnyCookie:
			mut = " accept-any-cookie"
		case verify.MutantNoTimeWait:
			mut = " no-timewait"
		}
		targets = append(targets, target{
			name: fmt.Sprintf("hs:c=%d lossy=%v reorder=%v beats=%v reinc=%v%s",
				o.Capacity, o.Lossy, o.Reorder, o.Beats, o.Reincarnate, mut),
			sys:            sys,
			opts:           verify.Options{Invariants: []verify.Invariant{verify.HSInvariant()}},
			wantViolations: wantViol,
			note:           note,
		})
		return nil
	}
	steps := []func() error{
		func() error { return arq(verify.ARQOptions{SeqSpace: 4, Capacity: 1}, false) },
		func() error { return arq(verify.ARQOptions{SeqSpace: 16, Capacity: 2}, false) },
		func() error { return arq(verify.ARQOptions{SeqSpace: 8, Capacity: 1, Lossy: true}, false) },
		func() error {
			return arq(verify.ARQOptions{SeqSpace: 4, Capacity: 2, BrokenAckGuard: true}, true)
		},
		func() error { return gbn(verify.GBNOptions{SeqSpace: 4, Window: 2, Total: 3, Capacity: 1}, false, "") },
		func() error {
			return gbn(verify.GBNOptions{SeqSpace: 8, Window: 3, Total: 4, Capacity: 2, Lossy: true, Reorder: true}, false, "")
		},
		func() error {
			return gbn(verify.GBNOptions{SeqSpace: 3, Window: 3, Total: 4, Capacity: 2, Lossy: true}, true, "seeded bug: n == W")
		},
		func() error { return sr(verify.SROptions{SeqSpace: 4, Total: 3, Capacity: 2, Lossy: true}, false, "") },
		func() error {
			return sr(verify.SROptions{SeqSpace: 3, Total: 3, Capacity: 2, Lossy: true}, true, "seeded bug: n < 2W")
		},
		func() error {
			return sr(verify.SROptions{SeqSpace: 4, Total: 3, Capacity: 2, Lossy: true, Reorder: true}, true, "unsafe under reordering")
		},
		func() error {
			return sr(verify.SROptions{SeqSpace: 6, Window: 3, Total: 4, Capacity: 2, Lossy: true}, false, "")
		},
		func() error {
			return sr(verify.SROptions{SeqSpace: 5, Window: 3, Total: 4, Capacity: 2, Lossy: true}, true, "seeded bug: n < 2W at W=3")
		},
		func() error { return hs(verify.HSOptions{Capacity: 2, Lossy: true, Reorder: true}, false, "") },
		func() error { return hs(verify.HSOptions{Capacity: 1, Beats: true}, false, "") },
		func() error {
			return hs(verify.HSOptions{Capacity: 2, Reorder: true, Reincarnate: true}, false, "")
		},
		func() error {
			return hs(verify.HSOptions{Capacity: 2, Lossy: true, Mutant: verify.MutantHalfOpenLeak}, true, "seeded bug: SYN allocates state")
		},
		func() error {
			return hs(verify.HSOptions{Capacity: 2, Lossy: true, Mutant: verify.MutantAcceptAnyCookie}, true, "seeded bug: cookie unchecked")
		},
		func() error {
			return hs(verify.HSOptions{Capacity: 2, Reorder: true, Reincarnate: true, Mutant: verify.MutantNoTimeWait}, true, "seeded bug: teardown skips TIME_WAIT")
		},
	}
	if full {
		// The flagship configuration beyond the sequential engine's
		// practical limit: 749,416 states, 8.6 s at one worker and 4.9 s
		// at two on a 2-vCPU Xeon (the sequential engine needs minutes).
		// See DESIGN.md §12.
		steps = append(steps, func() error {
			return gbn(verify.GBNOptions{SeqSpace: 16, Window: 6, Total: 10, Capacity: 3, Lossy: true, Reorder: true}, false, "")
		})
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return targets, nil
}

// run executes the gate and returns the process exit code.
func run(out io.Writer, specDir string, full bool, workers, maxStates int) int {
	targets, err := specTargets(specDir)
	if err != nil {
		fmt.Fprintf(out, "protoverify: %v\n", err)
		return 1
	}
	models, err := modelTargets(full)
	if err != nil {
		fmt.Fprintf(out, "protoverify: %v\n", err)
		return 1
	}
	targets = append(targets, models...)

	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	fmt.Fprintf(out, "protoverify: %d targets, workers=%d\n", len(targets), workers)
	bad := 0
	var totalStates, totalTransitions int
	start := time.Now()
	for _, t := range targets {
		opts := t.opts
		opts.Workers = workers
		opts.MaxStates = maxStates
		res, err := verify.Explore(t.sys, opts)
		if err != nil {
			fmt.Fprintf(out, "  FAIL      %-52s %v\n", t.name, err)
			bad++
			continue
		}
		totalStates += res.States
		totalTransitions += res.Transitions
		detail := fmt.Sprintf("states=%-8d trans=%-9d depth=%-3d %8.0f st/s",
			res.States, res.Transitions, res.Stats.Depth, res.Stats.StatesPerSec)
		switch {
		case res.Truncated:
			fmt.Fprintf(out, "  FAIL      %-52s %s truncated at MaxStates=%d — verdict unreliable\n",
				t.name, detail, opts.MaxStates)
			bad++
		case t.wantViolations && len(res.Violations) == 0:
			fmt.Fprintf(out, "  FAIL      %-52s %s expected violations (%s), found none — gate lost its teeth\n",
				t.name, detail, t.note)
			bad++
		case !t.wantViolations && len(res.Violations) > 0:
			fmt.Fprintf(out, "  FAIL      %-52s %s %d unexpected violation(s)\n", t.name, detail, len(res.Violations))
			for i, v := range res.Violations {
				if i == 3 {
					fmt.Fprintf(out, "            ... and %d more\n", len(res.Violations)-3)
					break
				}
				fmt.Fprintf(out, "            %s\n", v.String())
			}
			bad++
		case t.wantViolations:
			fmt.Fprintf(out, "  expected  %-52s %s %d violation(s): %s\n",
				t.name, detail, len(res.Violations), t.note)
		default:
			fmt.Fprintf(out, "  ok        %-52s %s\n", t.name, detail)
		}
	}
	fmt.Fprintf(out, "protoverify: %d states / %d transitions explored in %v\n",
		totalStates, totalTransitions, time.Since(start).Round(time.Millisecond))
	if bad > 0 {
		fmt.Fprintf(out, "protoverify: %d target(s) failed\n", bad)
		return 1
	}
	fmt.Fprintln(out, "protoverify: all targets match their expected verdicts")
	return 0
}

func main() {
	specDir := flag.String("specs", "examples/specs", "directory of .pdsl specs to model-check")
	full := flag.Bool("full", false, "include the large flagship configuration (749k states, ~8s at one worker)")
	workers := flag.Int("workers", 0, "explorer worker count (0 = NumCPU)")
	maxStates := flag.Int("max-states", 1<<21, "visited-table bound; truncation fails the gate")
	flag.Parse()
	os.Exit(run(os.Stdout, *specDir, *full, *workers, *maxStates))
}
