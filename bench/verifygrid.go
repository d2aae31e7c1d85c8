package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"protodsl/internal/dsl"
	"protodsl/internal/fsm"
	"protodsl/internal/testgen"
	"protodsl/internal/verify"
)

// verifyWL is verify_grid: passes over a fixed table of model-checking
// targets with known answers in both directions, built and explored the
// way cmd/protoverify does. A pass (and an op) compiles the spec files,
// builds every model and explores every target; an item is one explored
// state.
type verifyWL struct {
	specs map[string]string // examples/specs/*.pdsl, read during setup
	order []int             // target order, shuffled by the run seed
	smoke bool
}

func (w *verifyWL) payloadSize() int { return 64 }
func (w *verifyWL) sampleN() uint64  { return 1 }
func (w *verifyWL) teardown()        { w.specs = nil }

// gridTarget is one row: how to build the closed system, how to explore
// it, and the verdict it must produce.
type gridTarget struct {
	name           string
	build          func() (*verify.System, error)
	opts           verify.Options
	wantViolations bool
	big            bool // the one large state space; states_per_s is read off it
}

// bigGBN is the large clean target. The issue's n=12 w=5 t=8 c=3
// (235,564 states, ~4.9 s a pass here) cannot be passed several times
// inside the contract's 10 s window; the same model with two-deep
// channels (16,301 states, ~0.5 s) can.
var bigGBN = verify.GBNOptions{SeqSpace: 12, Window: 5, Total: 8, Capacity: 2, Lossy: true, Reorder: true}

func (w *verifyWL) targets() ([]gridTarget, error) {
	var ts []gridTarget
	files := make([]string, 0, len(w.specs))
	for f := range w.specs {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		src := w.specs[file]
		proto, reports, err := dsl.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", file, err)
		}
		for _, rep := range reports {
			if !rep.OK() {
				return nil, fmt.Errorf("%s: machine %s: %v", file, rep.Spec, rep.Errors())
			}
		}
		for _, spec := range proto.Machines {
			ts = append(ts, gridTarget{
				name:  fmt.Sprintf("spec:%s/%s", file, spec.Name),
				build: func() (*verify.System, error) { return closeOverEnv(spec) },
				opts:  verify.Options{CheckDeadlock: true},
			})
		}
	}
	gbn := func(o verify.GBNOptions, want, big bool) {
		ts = append(ts, gridTarget{
			name:           fmt.Sprintf("gbn:n=%d w=%d t=%d c=%d lossy=%v reorder=%v", o.SeqSpace, o.Window, o.Total, o.Capacity, o.Lossy, o.Reorder),
			build:          func() (*verify.System, error) { return verify.BuildGBN(o) },
			opts:           verify.Options{Invariants: []verify.Invariant{verify.GBNInvariant(o.SeqSpace)}},
			wantViolations: want, big: big,
		})
	}
	sr := func(o verify.SROptions, want bool) {
		ts = append(ts, gridTarget{
			name:           fmt.Sprintf("sr:n=%d w=%d t=%d c=%d lossy=%v", o.SeqSpace, o.Window, o.Total, o.Capacity, o.Lossy),
			build:          func() (*verify.System, error) { return verify.BuildSR(o) },
			opts:           verify.Options{Invariants: []verify.Invariant{verify.SRInvariantW(o.SeqSpace, o.Window)}},
			wantViolations: want,
		})
	}
	hs := func(o verify.HSOptions, want bool) {
		ts = append(ts, gridTarget{
			name:           fmt.Sprintf("hs:c=%d reorder=%v reinc=%v mutant=%d", o.Capacity, o.Reorder, o.Reincarnate, o.Mutant),
			build:          func() (*verify.System, error) { return verify.BuildHandshake(o) },
			opts:           verify.Options{Invariants: []verify.Invariant{verify.HSInvariant()}},
			wantViolations: want,
		})
	}
	gbn(verify.GBNOptions{SeqSpace: 3, Window: 3, Total: 4, Capacity: 2, Lossy: true}, true, false)
	if !w.smoke {
		// A tenth of a second and up each: too slow for the tier-1 test,
		// which keeps both verdict directions without them.
		gbn(bigGBN, false, true)
		sr(verify.SROptions{SeqSpace: 6, Window: 3, Total: 4, Capacity: 2, Lossy: true}, false)
		sr(verify.SROptions{SeqSpace: 5, Window: 3, Total: 4, Capacity: 2, Lossy: true}, true)
	}
	hs(verify.HSOptions{Capacity: 2, Reorder: true, Reincarnate: true}, false)
	hs(verify.HSOptions{Capacity: 2, Reorder: true, Reincarnate: true, Mutant: verify.MutantNoTimeWait}, true)
	return ts, nil
}

// closeOverEnv closes one machine spec over its full stimulus domain:
// every declared event with the argument candidates testgen enumerates.
func closeOverEnv(spec *fsm.Spec) (*verify.System, error) {
	env := make([]verify.EnvEvent, 0, len(spec.Events))
	for i := range spec.Events {
		args, err := testgen.EnvArgs(spec, &spec.Events[i])
		if err != nil {
			return nil, err
		}
		env = append(env, verify.EnvEvent{Machine: 0, Event: spec.Events[i].Name, Args: args})
	}
	return &verify.System{Specs: []*fsm.Spec{spec}, Env: env}, nil
}

// checkVerdict compares an exploration with the table's known answer:
// clean targets stay clean, seeded bugs keep violating, and a truncated
// search is no verdict at all.
func checkVerdict(wantViolations bool, res *verify.Result) error {
	switch {
	case res.Truncated:
		return fmt.Errorf("truncated at %d states: verdict unreliable", res.States)
	case wantViolations && len(res.Violations) == 0:
		return fmt.Errorf("expected violations, found none")
	case !wantViolations && len(res.Violations) > 0:
		return fmt.Errorf("%d unexpected violation(s), first: %s", len(res.Violations), res.Violations[0].String())
	}
	return nil
}

func readSpecs(root string) (map[string]string, error) {
	files, err := filepath.Glob(filepath.Join(root, "examples", "specs", "*.pdsl"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .pdsl files under %s/examples/specs", root)
	}
	specs := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		specs[filepath.Base(f)] = string(src)
	}
	return specs, nil
}

func (w *verifyWL) setup(e *env) error {
	w.smoke = e.smoke
	specs, err := readSpecs(e.root)
	if err != nil {
		return err
	}
	w.specs = specs
	ts, err := w.targets()
	if err != nil {
		return err
	}
	w.order = rand.New(rand.NewSource(e.seed)).Perm(len(ts))
	// Warm-up: every target except the large one.
	rs, err := w.pass(ts, true, nil)
	if err != nil {
		return err
	}
	if rs.failed > 0 {
		return fmt.Errorf("warm-up pass: %d of %d verdicts wrong: %v", rs.failed, rs.ops, rs.failures)
	}
	return nil
}

func (w *verifyWL) round(e *env, i int, tr *tracer) (roundStat, error) {
	cpu0, t0 := cpuTime(), time.Now()
	ts, err := w.targets() // compiling the specs is part of what a verdict costs
	if err != nil {
		return roundStat{}, err
	}
	var b *spanBuf
	if tr != nil {
		b = tr.buf("verify")
	}
	rs, err := w.pass(ts, false, b)
	if err != nil {
		return rs, err
	}
	rs.wall, rs.cpu = time.Since(t0), cpuTime()-cpu0
	if rs.failed == 0 {
		rs.opMs = []float64{float64(rs.wall) / 1e6}
	}
	return rs, nil
}

// pass builds and explores every target (skipBig leaves the large one
// out) and checks each verdict.
func (w *verifyWL) pass(ts []gridTarget, skipBig bool, b *spanBuf) (roundStat, error) {
	var rs roundStat
	c := &rs.counts
	for n, ti := range w.order {
		t := &ts[ti]
		if t.big && skipBig {
			continue
		}
		req := uint32(n)
		t0 := time.Now()
		idx := int32(-1)
		if b != nil {
			idx = b.begin(spBuild, req)
		}
		sys, err := t.build()
		if b != nil {
			b.end(idx)
		}
		if err != nil {
			return rs, fmt.Errorf("%s: %w", t.name, err)
		}
		c.n[cBuildNs] += uint64(time.Since(t0))
		if b != nil {
			idx = b.begin(spExplore, req)
		}
		res, err := verify.Explore(sys, t.opts)
		if b != nil {
			b.end(idx)
		}
		if err != nil {
			return rs, fmt.Errorf("%s: %w", t.name, err)
		}
		rs.ops++
		rs.attempts += res.Transitions
		if err := checkVerdict(t.wantViolations, res); err != nil {
			rs.failed++
			rs.failures = append(rs.failures, fmt.Sprintf("%s: %v", t.name, err))
			continue
		}
		rs.items += res.States
		c.n[cStates] += uint64(res.States)
		c.n[cTransitions] += uint64(res.Transitions)
		c.n[cDupHits] += uint64(res.Stats.DupHits)
		c.n[cArenaBytes] = max(c.n[cArenaBytes], uint64(res.Stats.ArenaBytes))
		c.n[cFrontierPeak] = max(c.n[cFrontierPeak], uint64(res.Stats.FrontierPeak))
		if t.big {
			c.n[cBigNs] += uint64(res.Stats.Elapsed)
			c.n[cBigState] += uint64(res.States)
		} else {
			c.n[cSmallTargetsNs] += uint64(time.Since(t0))
		}
	}
	return rs, nil
}
