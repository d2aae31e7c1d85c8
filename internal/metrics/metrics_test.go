package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummary(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.StdDev() != 0 || s.N() != 0 {
		t.Error("empty summary not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.N() != 8 || s.Sum() != 40 {
		t.Errorf("n=%d sum=%f", s.N(), s.Sum())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %f", s.Mean())
	}
	if math.Abs(s.StdDev()-2) > 1e-9 {
		t.Errorf("stddev = %f, want 2", s.StdDev())
	}
	if s.min != 2 || s.max != 9 {
		t.Errorf("min=%f max=%f", s.min, s.max)
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Error("String misses n")
	}
}

func TestPercentiles(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := Percentiles(sample, 0, 50, 100)
	if got[0] != 1 || got[2] != 10 {
		t.Errorf("p0=%f p100=%f", got[0], got[2])
	}
	if got[1] != 5.5 {
		t.Errorf("p50 = %f, want 5.5", got[1])
	}
	// Out-of-range percentiles clamp.
	got = Percentiles(sample, -5, 200)
	if got[0] != 1 || got[1] != 10 {
		t.Errorf("clamped = %v", got)
	}
	// Empty sample.
	if got := Percentiles(nil, 50); got[0] != 0 {
		t.Errorf("empty p50 = %f", got[0])
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentiles(in, 50)
	if in[0] != 3 {
		t.Error("input mutated")
	}
}

func TestQuickSummaryMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		finite := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes bounded so the running sum cannot overflow.
			v = math.Mod(v, 1e6)
			s.Add(v)
			finite++
		}
		if finite == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.min-1e-9 && m <= s.max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJainFairness(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all-zero", []float64{0, 0, 0}, 0},
		{"equal", []float64{5, 5, 5, 5}, 1},
		{"single", []float64{7}, 1},
		{"one-hog", []float64{1, 0, 0, 0}, 0.25},
	}
	for _, c := range cases {
		if got := JainFairness(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: JainFairness = %g, want %g", c.name, got, c.want)
		}
	}
	// Unequal shares land strictly between 1/n and 1.
	if f := JainFairness([]float64{1, 2, 3}); f <= 1.0/3 || f >= 1 {
		t.Errorf("unequal fairness %g outside (1/3, 1)", f)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("E5: loss sweep", "loss", "goodput", "ok")
	tb.AddRow("0%", 1234.5678, true)
	tb.AddRow("50%", 12.3, false)
	if len(tb.rows) != 2 {
		t.Errorf("rows = %d", len(tb.rows))
	}
	out := tb.String()
	if !strings.Contains(out, "E5: loss sweep") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "1234.568") {
		t.Errorf("float not formatted: %s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("lines = %d, want 5 (title, header, rule, 2 rows)", len(lines))
	}
	// Header and rule align.
	if len(lines) >= 3 && len(strings.TrimRight(lines[1], " ")) == 0 {
		t.Error("empty header line")
	}
}
