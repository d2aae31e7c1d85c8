package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// benchmarkJSON is the part of BENCHMARK.json the tool itself reads:
// -compare takes directions and bounds from it, the smoke test checks
// names against the code.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []boundedMetric              `json:"end_to_end"`
	PerLayer  []boundedMetric              `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkJSON(root string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// side is one file's untraced runs of one workload.
type side struct {
	values      map[string][]float64 // metric -> one value per run
	ops, failed int
}

func loadSides(path string) (map[string]*side, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs in file (want the output of -workload all -json)", path)
	}
	sides := map[string]*side{}
	for _, r := range f.Runs {
		if r.Traced {
			continue
		}
		s := sides[r.Workload]
		if s == nil {
			s = &side{values: map[string][]float64{}}
			sides[r.Workload] = s
		}
		s.ops += r.Ops
		s.failed += r.FailedOps
		for name, m := range r.Metrics {
			s.values[name] = append(s.values[name], m.Value)
		}
	}
	return sides, nil
}

// spread is the interquartile range as a share of the median (0 for
// fewer than two runs).
func spread(xs []float64) (med, q1, q3, rel float64) {
	med = median(xs)
	if len(xs) < 2 {
		return med, med, med, 0
	}
	q1, q3 = quartiles(xs)
	return med, q1, q3, ratio(q3-q1, math.Abs(med))
}

// verdict applies one metric's bound to two samples. worse is the share
// of the old median by which the new median is worse (negative when it
// is better). With checkSpread, a spread wider than the bound on either
// side leaves the row unresolved, unless every new run beats every old
// run.
func verdict(old, new []float64, lowerIsBetter bool, bound float64, checkSpread bool) (worse float64, v string) {
	om, _, _, os := spread(old)
	nm, _, _, ns := spread(new)
	worse = ratio(nm-om, math.Abs(om))
	if !lowerIsBetter {
		worse = -worse
	}
	if checkSpread && math.Max(os, ns) > bound {
		allBetter := true
		for _, n := range new {
			for _, o := range old {
				if (lowerIsBetter && n >= o) || (!lowerIsBetter && n <= o) {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return worse, "unresolved"
		}
	}
	if worse > bound {
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per (end-to-end metric, workload) and
// fails unless every row is ok.
func compareFiles(oldPath, newPath string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	decl, err := loadBenchmarkJSON(root)
	if err != nil {
		return err
	}
	olds, err := loadSides(oldPath)
	if err != nil {
		return err
	}
	news, err := loadSides(newPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-18s %5s  %12s [%12s %12s]  %12s [%12s %12s]  %18s %6s  %s\n",
		"workload", "metric", "unit", "old median", "q1", "q3", "new median", "q1", "q3", "worse by (of old)", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		o, n := olds[w.name], news[w.name]
		if o == nil || n == nil {
			fmt.Printf("%-14s missing from %s\n", w.name, map[bool]string{true: oldPath, false: newPath}[o == nil])
			bad++
			continue
		}
		for _, m := range decl.EndToEnd {
			ov, nv := o.values[m.Name], n.values[m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Printf("%-14s %-18s not reported on both sides\n", w.name, m.Name)
				bad++
				continue
			}
			om, oq1, oq3, _ := spread(ov)
			nm, nq1, nq3, _ := spread(nv)
			// setup_s is a few repetitions of a sub-second action: like the
			// pipeline, judge it on its median alone.
			worse, v := verdict(ov, nv, m.Better == "lower", m.Bound, m.Name != "setup_s")
			if v != "ok" {
				bad++
			}
			fmt.Printf("%-14s %-18s %5s  %12.5g [%12.5g %12.5g]  %12.5g [%12.5g %12.5g]  %+8.2f%% of %-7.4g %5.0f%%  %s\n",
				w.name, m.Name, m.Unit, om, oq1, oq3, nm, nq1, nq3, 100*worse, om, 100*m.Bound, v)
		}
		fmt.Printf("%-14s failed_ops/ops: old %d/%d, new %d/%d (runs: %d, %d)\n",
			w.name, o.failed, o.ops, n.failed, n.ops, len(o.values["setup_s"]), len(n.values["setup_s"]))
		if o.failed > 0 || n.failed > 0 {
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d row(s) not ok", bad)
	}
	return nil
}
